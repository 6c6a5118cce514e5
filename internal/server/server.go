// Package server exposes the streaming phase detector over HTTP. Each
// session owns one online.Detector fed by a dedicated goroutine;
// clients POST trace chunks (NDJSON events, the binary trace file
// format, or columnar v2 chunks) and receive the phase events those
// chunks produced as NDJSON. Every wire format decodes into one
// representation, trace.Columns, which the worker feeds to the
// detector through AccessColumns. Ingestion is backpressured: each
// session has a bounded chunk queue, and a full queue answers 429
// instead of growing; queue occupancy also drives the detector's
// load-shedding stride.
//
// With a DataDir configured, sessions are durable: every accepted
// chunk is written to a per-session WAL (as row-form events) before
// processing, the detector is checkpointed periodically, and a
// restarted server replays the WAL suffix so the recovered detector
// emits exactly the phase boundaries an uninterrupted run would have.
// Clients may tag chunks with monotonically increasing sequence
// numbers (X-Lpp-Seq); a retransmit of the last accepted sequence
// number replays its cached response instead of double-feeding the
// detector, and a gap answers 409.
//
// The package is layered:
//
//   - transport (transport.go) — HTTP handlers, chunk/content-type
//     negotiation (decode.go), sequence headers, backpressure mapping.
//   - registry (registry.go) — the session table under one lock, session
//     lifecycle (local/suspended/migrating/remote), the idle reaper,
//     and the one worker round-trip every request goes through.
//   - engine (engine.go, engine_state.go) — the per-session worker
//     loop owning the detector, the phase chain, durability, and the
//     knowledge/replica hooks.
//
// Session images move between nodes in one format, the LPPCKPT1
// checkpoint the disk already holds. With Config.Successor set, every
// checkpoint streams to the session's ring successor, which keeps it
// apart from the sessions it owns (replica_handlers.go). Whichever node
// ends up serving a session adopts the newest image it holds before
// the worker restores: the successor the router walks to when the
// owner dies, or the target of a live migration (migrate_handlers.go).
package server

import (
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"lpp/internal/durable"
	"lpp/internal/faultfs"
	"lpp/internal/knowledge"
	"lpp/internal/online"
	"lpp/internal/phase"
	"lpp/internal/replica"
)

// Config tunes the server. The zero value takes the defaults below.
type Config struct {
	// Detector is the per-session detector configuration. Its OnEvent
	// field is overwritten; everything else passes through.
	Detector online.Config
	// Consumers, when non-nil, builds each session's run-time
	// adaptation chain; every phase event the session's detector emits
	// is also delivered to the chain, the chain's state rides the
	// session's checkpoints (and is replayed bit-identically after
	// crash recovery), and per-consumer delivery counters appear on
	// /metrics. The factory must return chains with the same consumers
	// in the same order every call — a durable session restored under a
	// different consumer composition is quarantined rather than
	// silently diverging.
	Consumers func() *phase.Chain
	// Knowledge, when non-nil, is the cross-session phase knowledge
	// store. Every session's chain gains a knowledge consumer ahead of
	// the chain's predictor consumer (if any), so a new session whose
	// early grammar matches a stored program warm-starts its predictor;
	// sessions contribute their learned state back on close and
	// suspend, the store persists after each contribution, and
	// lpp_knowledge_* counters appear on /metrics alongside the
	// GET /v1/knowledge inventory endpoint.
	Knowledge *knowledge.Store
	// QueueDepth is the number of chunks buffered per session beyond
	// the one being processed (default 8). A full queue rejects the
	// chunk with 429.
	QueueDepth int
	// MaxSessions caps concurrently open sessions (default 256); at
	// the cap, new sessions are refused with 503.
	MaxSessions int
	// MaxChunkBytes caps a single POST body (default 8 MiB).
	MaxChunkBytes int64
	// DataDir enables durability: each session keeps a checkpoint and
	// a write-ahead log under this directory and survives a crash or
	// restart. Empty means in-memory only.
	DataDir string
	// FS overrides the filesystem the durable layer writes through
	// (fault-injection tests). Nil means the real filesystem.
	FS faultfs.FS
	// SyncWrites fsyncs every WAL append and checkpoint, trading
	// latency for durability against power loss.
	SyncWrites bool
	// CheckpointEvery is the number of accepted chunks between
	// detector checkpoints (default 64). It bounds recovery replay.
	CheckpointEvery int
	// IdleTimeout suspends sessions idle longer than this: checkpoint,
	// evict from memory, recover transparently on the next request.
	// Zero disables the reaper; it requires DataDir. The reaper scans
	// every IdleTimeout/4 (at least 10ms).
	IdleTimeout time.Duration
	// Advertise is this node's base URL as other cluster members reach
	// it (e.g. "http://10.0.0.1:8080"). It labels locally-owned
	// sessions in GET /v1/sessions and SessionState; empty
	// means a single-node deployment.
	Advertise string
	// Successor, when non-nil, turns on replication: it names the ring
	// successor of a session — the member the router walks to when this
	// node dies — and every checkpoint the session takes (plus knowledge
	// snapshots) streams there asynchronously, so the successor resumes
	// from the image instead of from scratch; see internal/replica for
	// the delivery contract. It returns "" (or Advertise) for a session
	// with no other member. Requires DataDir and Advertise.
	Successor func(id string) string
	// ReplicaQueue bounds the replication queue (default 64); overflow
	// drops the oldest item and schedules a resync.
	ReplicaQueue int
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.MaxChunkBytes <= 0 {
		c.MaxChunkBytes = 8 << 20
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 64
	}
	return c
}

// Server routes HTTP requests to per-session detector workers.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	store *durable.Store // nil when ephemeral
	// replicas holds the images other nodes replicated here, keyed by
	// replicaKey(origin, id) (replica_handlers.go); nil when ephemeral.
	replicas *durable.Store

	// mu guards the session table (registry.go): the live sessions,
	// the placement markers for sessions this node no longer (remote)
	// or temporarily doesn't (migrating) own, and the closed flag.
	mu        sync.Mutex
	sessions  map[string]*session
	remote    map[string]string
	migrating map[string]struct{}
	closed    bool

	stop     chan struct{}
	stopOnce sync.Once
	reapWG   sync.WaitGroup

	// state backs /readyz: "ready", or why not ("recovering",
	// "shutting down", ...).
	state atomic.Value

	// repMu guards reps, one outbound Replicator per successor URL,
	// started on first use (replica_handlers.go); nil once stopped.
	repMu sync.Mutex
	reps  map[string]*replica.Replicator

	// replicaMu serializes the replica image stores against the
	// ownership checks and the adoption that read them.
	replicaMu sync.Mutex

	m metrics

	// testChunkHook, when set (tests only), runs during each chunk's
	// processing — after the WAL append, before the detector feed — so
	// tests can hold or kill a worker mid-chunk.
	testChunkHook func()
}

// New returns a Server; use Handler to serve it.
func New(cfg Config) (*Server, error) {
	s := &Server{
		cfg:       cfg.withDefaults(),
		mux:       http.NewServeMux(),
		stop:      make(chan struct{}),
		sessions:  make(map[string]*session),
		remote:    make(map[string]string),
		migrating: make(map[string]struct{}),
	}
	if s.cfg.Successor != nil && (s.cfg.DataDir == "" || s.cfg.Advertise == "") {
		return nil, errors.New("server: replication (Successor) requires DataDir and Advertise")
	}
	if s.cfg.DataDir != "" {
		store, err := durable.Open(s.cfg.DataDir, s.cfg.FS, s.cfg.SyncWrites)
		if err != nil {
			return nil, err
		}
		s.store = store
		if s.replicas, err = durable.Open(filepath.Join(s.cfg.DataDir, replicaDir), s.cfg.FS, s.cfg.SyncWrites); err != nil {
			return nil, err
		}
	}
	if s.cfg.Knowledge != nil {
		// Wrap the chain factory so every session leads with a knowledge
		// consumer targeting the chain's predictor consumer (if any).
		// Leading matters: the warm start must land before the predictor
		// consumes the boundary that triggered the match.
		inner := s.cfg.Consumers
		store := s.cfg.Knowledge
		s.cfg.Consumers = func() *phase.Chain {
			var cons []phase.Consumer
			if inner != nil {
				cons = inner().Consumers()
			}
			var target *phase.PredictorConsumer
			for _, c := range cons {
				if pc, ok := c.(*phase.PredictorConsumer); ok {
					target = pc
					break
				}
			}
			kc := knowledge.NewConsumer(store, target)
			return phase.NewChain(append([]phase.Consumer{kc}, cons...)...)
		}
	}
	if s.cfg.Consumers != nil {
		// Probe the factory once so the per-consumer metric slots (and
		// their order) are fixed before any session exists.
		probe := s.cfg.Consumers()
		names := make([]string, 0, probe.Len())
		for _, st := range probe.Stats() {
			names = append(names, st.Name)
		}
		s.m.initConsumers(names)
	}
	s.m.start = time.Now()
	s.routes()
	s.state.Store("ready")
	s.reps = make(map[string]*replica.Replicator)
	if s.store != nil && s.cfg.IdleTimeout > 0 {
		s.reapWG.Add(1)
		go s.reap()
	}
	return s, nil
}

// Handler returns the HTTP handler for the server.
func (s *Server) Handler() http.Handler { return s.mux }

// Advertise returns this node's advertised base URL ("" single-node).
func (s *Server) Advertise() string { return s.cfg.Advertise }

// RecoverSessions eagerly revives every session with durable state,
// replaying each WAL so detectors are warm before traffic arrives. It
// returns the number of sessions recovered. Without a DataDir it is a
// no-op; recovery also happens lazily on the first request for an id.
func (s *Server) RecoverSessions() (int, error) {
	if s.store == nil {
		return 0, nil
	}
	// WAL replay can take a while; flag it on /readyz so load balancers
	// hold traffic until the detectors are warm.
	s.state.Store("recovering")
	ids, err := s.store.List()
	if err != nil {
		s.state.Store("recovery failed: " + err.Error())
		return 0, err
	}
	for i, id := range ids {
		sess, err := s.getSession(id, true)
		if err != nil {
			s.state.Store("recovery failed: " + err.Error())
			return i, fmt.Errorf("recover session %q: %w", id, err)
		}
		<-sess.ready
		// Resync every successor owed images, not only those the next
		// checkpoints reach.
		s.replicatorFor(id)
	}
	s.state.Store("ready")
	return len(ids), nil
}

// State returns the readiness state /readyz reports ("ready",
// "recovering", "shutting down", ...).
func (s *Server) State() string { return s.state.Load().(string) }

// Close stops the reaper and tears every session down gracefully:
// queued chunks are processed, then each session is checkpointed (with
// durability) and its worker exits. Durable sessions stay recoverable
// on disk; ephemeral state is discarded.
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.reapWG.Wait()
	s.state.Store("shutting down")
	for _, sess := range s.drainSessions() {
		sess.roundTrip(chunk{op: opSuspend})
	}
	// Replication drains after the suspend pass so the final
	// checkpoints reach the successors before the senders stop.
	s.stopReplication(true)
}

// Kill simulates a crash: every worker stops where it stands; nothing
// is flushed or checkpointed. Durable state is whatever the WAL and
// the last checkpoint already captured. Chaos tests use it; production
// shutdown uses Close.
func (s *Server) Kill() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.reapWG.Wait()
	for _, sess := range s.drainSessions() {
		sess.killOnce.Do(func() { close(sess.kill) })
	}
	s.stopReplication(false) // a crash abandons the queues
}

var (
	errNoSession       = errors.New("no such session")
	errTooManySessions = errors.New("session limit reached")
	errServerClosed    = errors.New("server closed")
	errQueueFull       = errors.New("session queue full")
	errSessionDown     = errors.New("session terminated")
	errNotEnqueued     = errors.New("session terminated before taking the request")
	errContended       = errors.New("session contended; retry")
	errMigrating       = errors.New("session is migrating; retry")
)
