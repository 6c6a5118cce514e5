// Command lppserve runs the streaming phase-detection service.
//
// Clients open a session implicitly by POSTing trace chunks — NDJSON
// events or the lpptrace binary format — and receive the phase
// boundaries and predictions those chunks produced as NDJSON:
//
//	lppserve -addr :8080 -data /var/lib/lppserve
//	curl -X POST --data-binary @chunk.ndjson localhost:8080/v1/sessions/run1/events
//	curl -X DELETE localhost:8080/v1/sessions/run1      # flush + close
//	curl localhost:8080/metrics
//
// With -data, sessions are durable: accepted chunks are write-ahead
// logged and detectors checkpointed, so a crash or restart resumes
// every session exactly where it left off. SIGTERM drains gracefully:
// the listener closes, in-flight requests finish, every session is
// checkpointed, and the process exits 0 within the -drain deadline.
//
// With -consumers, each session also drives a chain of run-time
// adaptation consumers (predictor[:strict|:relaxed], cacheresize,
// dvfs, remap) from its phase events; consumer state rides the
// session checkpoints, and
// GET /v1/sessions/{id}/consumers reports each consumer's counters,
// state hash, and adaptation summary.
//
// With -knowledge, the server keeps a cross-session phase knowledge
// store: sessions whose early grammar fingerprint matches a previously
// seen program warm-start their predictor at their third boundary, and
// every closing session contributes its learned phase behavior back.
// The store survives restarts (and crashes) byte-identically.
//
// With -router, the process serves no sessions itself: it fronts the
// static membership given by -nodes as a consistent-hash cluster
// router. Each member runs a normal lppserve with -advertise set to
// the URL the other machines reach it at. Clients talk only to the
// router: it places each session on the ring, forwards chunks to the
// owning node, reroutes around dead members (health-gated by their
// /readyz), follows sessions that migrated (421 X-Lpp-Owner), and
// holds traffic through a live migration. POST /v1/cluster/migrate
// drains a session to another member; GET /v1/cluster/status shows
// membership and liveness.
//
// A member given the router's -nodes (and -vnodes) plus -advertise and
// -data replicates: every session checkpoint (and knowledge snapshot)
// streams to the session's ring successor, the member the router walks
// to if this one dies. That member adopts the newest image it holds,
// and the client's seq-numbered retry loop replays only the tail past
// it, losing zero acknowledged events. GET /readyz tells a serving
// node (200) from one that is recovering or draining (503); /healthz
// stays a pure liveness probe.
//
// Usage:
//
//	lppserve [-addr :8080] [-queue 8] [-max-sessions 256]
//	         [-max-chunk 8388608] [-data DIR] [-sync] [-checkpoint-every 64]
//	         [-idle-timeout 0] [-drain 10s] [-consumers predictor:strict,cacheresize]
//	         [-knowledge FILE] [-knowledge-cap 1024] [-knowledge-threshold 0.70]
//	         [-advertise URL [-nodes URL,URL,URL [-vnodes 128] [-replica-queue 64]]]
//	lppserve -router -nodes URL,URL,URL [-addr :8090] [-vnodes 128]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"lpp/internal/cluster"
	"lpp/internal/knowledge"
	"lpp/internal/online"
	"lpp/internal/phase"
	"lpp/internal/server"
)

func main() {
	if err := run(os.Args[1:], nil, nil); err != nil {
		log.Fatal(err)
	}
}

// run is main minus the process exit, so tests can drive a full
// serve-and-drain cycle in-process. If ready is non-nil it receives
// the bound listen address once the server is accepting connections;
// closing quit drains this instance alone, as SIGTERM drains them all.
func run(args []string, ready chan<- string, quit <-chan struct{}) error {
	fs := flag.NewFlagSet("lppserve", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		queue       = fs.Int("queue", 0, "per-session chunk queue depth (0 = default 8)")
		maxSessions = fs.Int("max-sessions", 0, "concurrent session cap (0 = default 256)")
		maxChunk    = fs.Int64("max-chunk", 0, "max POST body bytes (0 = default 8MiB)")
		maxStride   = fs.Int("max-stride", 0, "load-shedding stride cap (0 = default 16, 1 disables)")
		minGap      = fs.Int64("min-boundary-gap", 0, "suppress boundaries closer than this many accesses to the previous one (0 = disabled)")
		maxSig      = fs.Int("max-signature", 0, "cap on locality-signature pages per phase segment (0 = default 4096)")
		dataDir     = fs.String("data", "", "durable session directory (empty = in-memory only)")
		syncWrites  = fs.Bool("sync", false, "fsync every WAL append and checkpoint")
		ckptEvery   = fs.Int("checkpoint-every", 0, "accepted chunks between checkpoints (0 = default 64)")
		idleTimeout = fs.Duration("idle-timeout", 0, "checkpoint and evict sessions idle this long (0 = never; needs -data)")
		drain       = fs.Duration("drain", 10*time.Second, "graceful shutdown deadline")
		consumers   = fs.String("consumers", "", "comma-separated run-time consumer chain per session (predictor[:strict|:relaxed], cacheresize, dvfs, remap); empty = none")

		knowledgePath      = fs.String("knowledge", "", "cross-session knowledge store file; sessions warm-start from it and contribute back on close (empty = disabled)")
		knowledgeCap       = fs.Int("knowledge-cap", 0, "max stored programs before LRU/score eviction (0 = default 1024)")
		knowledgeThreshold = fs.Float64("knowledge-threshold", 0, "minimum match score for a warm start (0 = default 0.70)")

		replicaQueue = fs.Int("replica-queue", 0, "replication queue depth per successor; overflow drops oldest and resyncs (0 = default 64)")

		advertise = fs.String("advertise", "", "this node's base URL as other cluster members (and the router) reach it; labels session ownership")
		routerOn  = fs.Bool("router", false, "serve as the cluster router for the members in -nodes instead of serving sessions")
		nodes     = fs.String("nodes", "", "comma-separated member base URLs of the routed cluster (the router's ring; on a member, turns on replication to ring successors)")
		vnodes    = fs.Int("vnodes", 0, "virtual nodes per member on the consistent-hash ring (0 = default 128)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *routerOn {
		return runRouter(*addr, *nodes, *vnodes, *drain, ready, quit)
	}
	var successor func(id string) string
	if *nodes != "" {
		ring, err := memberRing(*nodes, *vnodes)
		if err != nil {
			return err
		}
		self := strings.TrimRight(*advertise, "/")
		if !slices.Contains(ring.Nodes(), self) {
			return fmt.Errorf("-nodes on a member needs -advertise naming one of the members")
		}
		successor = func(id string) string {
			return ring.OwnerWith(id, func(n string) bool { return n != self })
		}
	}
	// Validate the consumer spec at startup, not at first session.
	var consumerFactory func() *phase.Chain
	if *consumers != "" {
		if _, err := phase.ParseChain(*consumers); err != nil {
			return err
		}
		spec := *consumers
		consumerFactory = func() *phase.Chain {
			c, err := phase.ParseChain(spec)
			if err != nil {
				// Unreachable: the spec was validated above and stock
				// construction is deterministic.
				panic(err)
			}
			return c
		}
	}

	var kstore *knowledge.Store
	if *knowledgePath != "" {
		ks, err := knowledge.Open(*knowledgePath, nil, knowledge.Config{
			Cap:       *knowledgeCap,
			Threshold: *knowledgeThreshold,
		})
		if err != nil {
			return err
		}
		kstore = ks
		st := kstore.Stats()
		log.Printf("knowledge store %s: %d program(s), %d bytes", *knowledgePath, st.Entries, st.Bytes)
	}

	srv, err := server.New(server.Config{
		Detector:        online.Config{MaxStride: *maxStride, MinBoundaryGap: *minGap, MaxSignature: *maxSig},
		Consumers:       consumerFactory,
		Knowledge:       kstore,
		QueueDepth:      *queue,
		MaxSessions:     *maxSessions,
		MaxChunkBytes:   *maxChunk,
		DataDir:         *dataDir,
		SyncWrites:      *syncWrites,
		CheckpointEvery: *ckptEvery,
		IdleTimeout:     *idleTimeout,
		Successor:       successor,
		ReplicaQueue:    *replicaQueue,
		Advertise:       *advertise,
	})
	if err != nil {
		return err
	}
	if *dataDir != "" {
		n, err := srv.RecoverSessions()
		if err != nil {
			return fmt.Errorf("recover sessions: %w", err)
		}
		if n > 0 {
			log.Printf("recovered %d session(s) from %s", n, *dataDir)
		}
	}
	if successor != nil {
		log.Printf("replicating checkpoints to ring successors among %s", *nodes)
	}

	// Past the drain deadline we exit anyway: the WAL already holds
	// every accepted chunk, so sessions stay recoverable even without
	// their final checkpoint.
	return serve(*addr, srv.Handler(), *drain, ready, quit, func(ctx context.Context) {
		done := make(chan struct{})
		go func() { srv.Close(); close(done) }()
		select {
		case <-done:
			log.Print("drained; all sessions checkpointed")
		case <-ctx.Done():
			log.Print("drain deadline exceeded; exiting on WAL durability alone")
		}
	})
}

// serve listens on addr and serves h until SIGTERM/SIGINT or quit. It
// then stops accepting and finishes in-flight requests, and runs finish
// under the same drain deadline.
func serve(addr string, h http.Handler, drain time.Duration, ready chan<- string, quit <-chan struct{}, finish func(ctx context.Context)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: h}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	log.Printf("lppserve listening on %s", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}
	select {
	case sig := <-stop:
		log.Printf("%v: draining (deadline %v)", sig, drain)
	case <-quit:
		log.Printf("quit: draining (deadline %v)", drain)
	case err = <-errc:
	}
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err == nil {
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
	}
	finish(ctx)
	return err
}

// memberRing builds the consistent-hash ring over the -nodes list.
func memberRing(nodeList string, vnodes int) (*cluster.Ring, error) {
	var members []string
	for _, n := range strings.Split(nodeList, ",") {
		if n = strings.TrimSpace(n); n != "" {
			members = append(members, strings.TrimRight(n, "/"))
		}
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("-nodes needs at least one member URL")
	}
	return cluster.New(members, vnodes)
}

// runRouter serves the cluster router: no sessions, no disk — just the
// ring, the health poller, and the forwarding handler.
func runRouter(addr, nodeList string, vnodes int, drain time.Duration, ready chan<- string, quit <-chan struct{}) error {
	ring, err := memberRing(nodeList, vnodes)
	if err != nil {
		return err
	}
	members := ring.Nodes()
	health := cluster.NewHealth(members, nil, 0)
	defer health.Close()
	log.Printf("router fronting %d node(s): %s", len(members), strings.Join(members, ", "))
	return serve(addr, cluster.NewRouter(ring, health, nil), drain, ready, quit, func(context.Context) {})
}
