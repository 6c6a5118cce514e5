package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"lpp/internal/cluster"
	"lpp/internal/httpx"
	"lpp/internal/server"
	"lpp/internal/trace"
)

// clusterReport is the BENCH_cluster.json schema: a routed 3-node
// cluster under multi-session load, with one node killed mid-ingest
// and one session live-migrated, plus the proof that the chaos lost
// nothing.
type clusterReport struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Nodes      int     `json:"nodes"`
	Vnodes     int     `json:"vnodes"`
	Sessions   int     `json:"sessions"`
	Events     int     `json:"events"`
	Chunks     int     `json:"chunks_per_session"`
	ChunkLen   int     `json:"chunk_len"`
	Seconds    float64 `json:"seconds"`

	// Placement balance on the ring, sampled before any chaos.
	SessionsPerNode  map[string]int `json:"sessions_per_node"`
	BalanceRatio     float64        `json:"balance_max_min_ratio"`
	CrossNodeP50Ms   float64        `json:"cross_node_ingest_p50_ms"`
	CrossNodeP99Ms   float64        `json:"cross_node_ingest_p99_ms"`
	RoutedEventsPerS float64        `json:"routed_events_per_sec"`

	// The node kill: how many sessions lost their home and how much
	// tail the clients replayed through the router to land them on the
	// fallback owners.
	KillRound        int     `json:"kill_round"`
	ReroutedSessions int     `json:"rerouted_sessions"`
	ReplayedChunks   int     `json:"replayed_chunks"`
	RetriedConn      int     `json:"retried_conn_errors"`
	Rewinds          int     `json:"rewinds_409"`
	MigrationPauseMs float64 `json:"migration_pause_ms"`
	MigrationImage   int     `json:"migration_image_bytes"`
	MigrationSession string  `json:"migration_session"`

	// EventsLost counts acknowledged events whose replayed responses
	// diverged from the uninterrupted reference; the bench errors out
	// instead of writing a report unless it is zero, so a committed
	// BENCH_cluster.json always proves zero.
	EventsLost int    `json:"events_lost"`
	Parity     string `json:"parity"`
	Note       string `json:"note"`
}

// clusterNote is the caveat carried in every BENCH_cluster.json: how
// node death is simulated, plus, on a single-CPU host, why the
// latencies there are upper bounds.
func clusterNote(numCPU int) string {
	note := "Node death is simulated with the in-process Kill() — the SIGKILL " +
		"equivalent: no drain, no final checkpoint; the clients replay the dead " +
		"node's sessions onto their fallback owners through the router, riding " +
		"409 X-Lpp-Want-Seq rewinds."
	if numCPU == 1 {
		note = "single-CPU runner: all three nodes, the router, and the client " +
			"share one core, so cross-node latencies and the migration pause are " +
			"upper bounds dominated by detection cost, not network. " + note
	}
	return note
}

// startNode brings up one in-process lppserve node on a real loopback
// listener, advertising its real URL, and returns the server, its base
// URL, and a shutdown func.
func startNode(cfg server.Config) (*server.Server, string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	base := "http://" + ln.Addr().String()
	cfg.Advertise = base
	srv, err := server.New(cfg)
	if err != nil {
		ln.Close()
		return nil, "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	stop := func() {
		hs.Close()
		srv.Close()
	}
	return srv, base, stop, nil
}

// clusterSession is one client's stream through the router.
type clusterSession struct {
	id     string
	chunks [][]byte
	next   int      // index of the next chunk to send
	acked  [][]byte // responses acknowledged so far
	ref    [][]byte // the uninterrupted run's responses
	refEnd []byte   // the uninterrupted run's close summary
}

// runCluster measures a routed 3-node cluster under chaos: 12 sessions
// stream through the router, placement balance and cross-node ingest
// latency are sampled, then one node is killed mid-ingest (its
// sessions fail over to their ring successors via 409 rewinds) and one
// session is live-migrated under load. The run verifies — against
// uninterrupted single-node runs of the same streams — that every
// acknowledged response and every close summary is byte-identical,
// then writes BENCH_cluster.json.
func runCluster(stdout io.Writer, outDir string, perSession, chunkLen int) error {
	const nNodes = 3
	const nSessions = 12
	// Keep each session at ~10 chunks so the kill and the migration
	// both land with plenty of live traffic around them.
	perSession /= 4
	if perSession < 20_000 {
		perSession = 20_000
	}
	if chunkLen > perSession/8 {
		chunkLen = perSession / 8
	}

	sessions := make([]*clusterSession, nSessions)
	maxChunks := 0
	for i := range sessions {
		events := ingestEvents(int64(42+i), perSession)
		chunks, err := encodeChunks(events, chunkLen)
		if err != nil {
			return err
		}
		sessions[i] = &clusterSession{
			id:     fmt.Sprintf("s-%02d", i),
			chunks: chunks,
			acked:  make([][]byte, len(chunks)),
			ref:    make([][]byte, len(chunks)),
		}
		if len(chunks) > maxChunks {
			maxChunks = len(chunks)
		}
	}
	if maxChunks < 6 {
		return fmt.Errorf("-cluster needs at least 6 chunks per session (got %d); lower -chunk or raise -events", maxChunks)
	}

	// Reference: every stream against one uninterrupted node.
	{
		_, base, stop, err := startNode(server.Config{})
		if err != nil {
			return err
		}
		client := &http.Client{}
		var rc httpx.RetryCounts
		for _, cs := range sessions {
			for i, body := range cs.chunks {
				resp, err := httpx.PostChunk(client, base+"/v1/sessions/"+cs.id+"/events", uint64(i+1), body, "application/x-lpp-trace", &rc)
				if err != nil {
					stop()
					return fmt.Errorf("reference %s chunk %d: %w", cs.id, i+1, err)
				}
				cs.ref[i], err = readOK(resp)
				if err != nil {
					stop()
					return fmt.Errorf("reference %s chunk %d: %w", cs.id, i+1, err)
				}
			}
			cs.refEnd, err = deleteSession(client, base, cs.id)
			if err != nil {
				stop()
				return fmt.Errorf("reference close %s: %w", cs.id, err)
			}
		}
		stop()
	}

	// The routed cluster: three durable nodes behind one router.
	type node struct {
		srv  *server.Server
		base string
		stop func()
	}
	nodes := make([]node, nNodes)
	bases := make([]string, nNodes)
	for i := range nodes {
		dir, err := os.MkdirTemp("", "lppbench-cluster-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		srv, base, stop, err := startNode(server.Config{DataDir: dir, CheckpointEvery: 4})
		if err != nil {
			return err
		}
		defer stop()
		nodes[i] = node{srv: srv, base: base, stop: stop}
		bases[i] = base
	}
	ring, err := cluster.New(bases, 0)
	if err != nil {
		return err
	}
	health := cluster.NewHealth(bases, nil, 50*time.Millisecond)
	defer health.Close()
	rt := cluster.NewRouter(ring, health, nil)
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	rhs := &http.Server{Handler: rt}
	go rhs.Serve(rln)
	defer rhs.Close()
	routerBase := "http://" + rln.Addr().String()

	// Placement balance before any chaos.
	perNode := make(map[string]int, nNodes)
	for _, cs := range sessions {
		perNode[ring.Owner(cs.id)]++
	}
	minOwned, maxOwned := nSessions, 0
	for _, b := range bases {
		if perNode[b] < minOwned {
			minOwned = perNode[b]
		}
		if perNode[b] > maxOwned {
			maxOwned = perNode[b]
		}
	}
	balance := float64(maxOwned)
	if minOwned > 0 {
		balance = float64(maxOwned) / float64(minOwned)
	}

	killRound := maxChunks * 2 / 5
	migrateRound := maxChunks * 7 / 10
	if migrateRound <= killRound {
		migrateRound = killRound + 1
	}
	// The victim owns the most sessions: the worst-case reroute.
	victim := ""
	for _, b := range bases {
		if victim == "" || perNode[b] > perNode[victim] {
			victim = b
		}
	}

	client := &http.Client{Timeout: 60 * time.Second}
	var rc httpx.RetryCounts
	var latencies []time.Duration
	var totalEvents int
	rewinds, replayed, rerouted := 0, 0, perNode[victim]
	killed := false
	var migration cluster.MigrationReport
	start := time.Now()

	// Round-robin the sessions chunk by chunk so the kill and the
	// migration land amid interleaved cross-node traffic.
	for round := 0; ; round++ {
		if round == killRound && !killed {
			for i := range nodes {
				if nodes[i].base == victim {
					nodes[i].stop()
					nodes[i].srv.Kill()
				}
			}
			killed = true
		}
		if round == migrateRound {
			// Drain one still-live session to the other surviving node.
			for _, cs := range sessions {
				src := rt.Owner(cs.id)
				tgt := ""
				for _, b := range bases {
					if b != src && b != victim {
						tgt = b
						break
					}
				}
				if src == victim || tgt == "" || cs.next >= len(cs.chunks) {
					continue
				}
				migration, err = cluster.Migrate(client, cs.id, src, tgt)
				if err != nil {
					return fmt.Errorf("live migration of %s: %w", cs.id, err)
				}
				rt.Pin(cs.id, tgt)
				break
			}
		}
		active := 0
		for _, cs := range sessions {
			if cs.next >= len(cs.chunks) {
				continue
			}
			active++
			i := cs.next
			sent := time.Now()
			resp, err := httpx.PostChunk(client, routerBase+"/v1/sessions/"+cs.id+"/events", uint64(i+1), cs.chunks[i], "application/x-lpp-trace", &rc)
			if err != nil {
				return fmt.Errorf("%s chunk %d via router: %w", cs.id, i+1, err)
			}
			if resp.StatusCode == http.StatusConflict {
				want, perr := strconv.ParseUint(resp.Header.Get("X-Lpp-Want-Seq"), 10, 64)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if perr != nil || want == 0 || want > uint64(i+1) {
					return fmt.Errorf("%s: 409 without usable X-Lpp-Want-Seq %q (next %d)", cs.id, resp.Header.Get("X-Lpp-Want-Seq"), i+1)
				}
				rewinds++
				cs.next = int(want) - 1
				continue
			}
			body, rerr := readOK(resp)
			if rerr != nil {
				return fmt.Errorf("%s chunk %d via router: %w", cs.id, i+1, rerr)
			}
			latencies = append(latencies, time.Since(sent))
			if !bytes.Equal(body, cs.ref[i]) {
				return fmt.Errorf("%s chunk %d diverges from the uninterrupted run — acknowledged events lost", cs.id, i+1)
			}
			if cs.acked[i] != nil {
				replayed++
			}
			cs.acked[i] = body
			if n := perSession - i*chunkLen; n < chunkLen {
				totalEvents += n
			} else {
				totalEvents += chunkLen
			}
			cs.next++
		}
		if active == 0 {
			break
		}
	}
	for _, cs := range sessions {
		closeBody, err := deleteSession(client, routerBase, cs.id)
		if err != nil {
			return fmt.Errorf("close %s via router: %w", cs.id, err)
		}
		if !bytes.Equal(closeBody, cs.refEnd) {
			return fmt.Errorf("%s close summary diverges from the uninterrupted run", cs.id)
		}
	}
	elapsed := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(q float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		return latencies[int(q*float64(len(latencies)-1))].Seconds() * 1e3
	}

	perNodeNamed := make(map[string]int, nNodes)
	for i, b := range bases {
		perNodeNamed[fmt.Sprintf("node-%d", i)] = perNode[b]
	}
	rep := clusterReport{
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		NumCPU:           runtime.NumCPU(),
		Nodes:            nNodes,
		Vnodes:           cluster.DefaultVnodes,
		Sessions:         nSessions,
		Events:           perSession * nSessions,
		Chunks:           maxChunks,
		ChunkLen:         chunkLen,
		Seconds:          elapsed.Seconds(),
		SessionsPerNode:  perNodeNamed,
		BalanceRatio:     balance,
		CrossNodeP50Ms:   pct(0.50),
		CrossNodeP99Ms:   pct(0.99),
		RoutedEventsPerS: float64(totalEvents) / elapsed.Seconds(),
		KillRound:        killRound,
		ReroutedSessions: rerouted,
		ReplayedChunks:   replayed,
		RetriedConn:      rc.Conn,
		Rewinds:          rewinds,
		MigrationPauseMs: migration.PauseMs,
		MigrationImage:   migration.ImageBytes,
		MigrationSession: migration.Session,
		EventsLost:       0,
		Parity:           "byte-identical",
		Note:             clusterNote(runtime.NumCPU()),
	}

	fmt.Fprintf(stdout, "cluster: %d sessions × %d events over %d routed nodes; balance %v (max/min %.2f)\n",
		rep.Sessions, perSession, rep.Nodes, rep.SessionsPerNode, rep.BalanceRatio)
	fmt.Fprintf(stdout, "cross-node ingest via router: p50 %.2fms p99 %.2fms, %.0f events/sec\n",
		rep.CrossNodeP50Ms, rep.CrossNodeP99Ms, rep.RoutedEventsPerS)
	fmt.Fprintf(stdout, "chaos: node killed at round %d (%d sessions rerouted, %d chunks replayed, %d rewinds, %d conn retries)\n",
		rep.KillRound, rep.ReroutedSessions, rep.ReplayedChunks, rep.Rewinds, rep.RetriedConn)
	fmt.Fprintf(stdout, "migration under load: %s paused %.2fms (image %d bytes)\n",
		rep.MigrationSession, rep.MigrationPauseMs, rep.MigrationImage)
	fmt.Fprintf(stdout, "parity: %s vs uninterrupted runs; events lost: %d\n", rep.Parity, rep.EventsLost)

	out := "BENCH_cluster.json"
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		out = filepath.Join(outDir, out)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "report written to %s\n", out)
	return nil
}

// ingestEvents synthesizes a deterministic phased access trace for one
// session: strided sweeps over a region that drifts every few blocks,
// so the detector sees realistic phase structure rather than noise.
func ingestEvents(seed int64, n int) []trace.Event {
	rng := rand.New(rand.NewSource(seed))
	events := make([]trace.Event, 0, n)
	base := trace.Addr(uint64(seed+1) << 24)
	var block trace.BlockID
	for len(events) < n {
		events = append(events, trace.Event{Kind: trace.EventBlock, Block: block, Instrs: 512})
		block++
		span := 64 + rng.Intn(192)
		for i := 0; i < span && len(events) < n; i++ {
			events = append(events, trace.Event{Kind: trace.EventAccess, Addr: base + trace.Addr(i*64)})
		}
		if block%16 == 0 {
			base += 1 << 16
		}
	}
	return events
}

// encodeChunks pre-encodes a session's events into v1 row-binary wire
// chunks so the timed section measures HTTP, decode, and detection —
// not client-side encoding.
func encodeChunks(events []trace.Event, chunkLen int) ([][]byte, error) {
	var chunks [][]byte
	for off := 0; off < len(events); off += chunkLen {
		end := min(off+chunkLen, len(events))
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		for _, ev := range events[off:end] {
			ev.Feed(w)
		}
		if err := w.Flush(); err != nil {
			return nil, err
		}
		chunks = append(chunks, buf.Bytes())
	}
	return chunks, nil
}

// readOK consumes a response, requiring 200, and returns its body.
func readOK(resp *http.Response) ([]byte, error) {
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// deleteSession closes a session and returns the final phase-event
// summary body.
func deleteSession(client *http.Client, base, id string) ([]byte, error) {
	req, err := http.NewRequest("DELETE", base+"/v1/sessions/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	return readOK(resp)
}
