package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lpp/internal/knowledge"
	"lpp/internal/online"
	"lpp/internal/phase"
	"lpp/internal/predictor"
	"lpp/internal/replica"
	"lpp/internal/workload"
)

// ringNode is one durable node on a real loopback listener.
type ringNode struct {
	*Server
	hs *http.Server
}

// kill is node death: the listener closes and every worker stops where
// it stands; nothing is flushed or checkpointed.
func (n *ringNode) kill() {
	n.hs.Close()
	n.Kill()
}

// startRing starts one durable node per config on real listeners (the
// replicators dial over TCP) and wires replication as a ring: each
// node's successor for every session is the next node. Two configs give
// a two-member ring: each node is the other's successor.
func startRing(t *testing.T, cfgs ...Config) []*ringNode {
	t.Helper()
	lns := make([]net.Listener, len(cfgs))
	bases := make([]string, len(cfgs))
	for i := range cfgs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], bases[i] = ln, "http://"+ln.Addr().String()
	}
	nodes := make([]*ringNode, len(cfgs))
	for i, cfg := range cfgs {
		next := bases[(i+1)%len(bases)]
		cfg.Advertise = bases[i]
		cfg.Successor = func(string) string { return next }
		n := &ringNode{Server: mustServer(t, cfg)}
		n.hs = &http.Server{Handler: n.Handler()}
		go n.hs.Serve(lns[i])
		t.Cleanup(func() {
			n.hs.Close()
			n.Close()
		})
		nodes[i] = n
	}
	return nodes
}

// flushReplication drains the node's replication queues and fails the
// test if a successor is unreachable.
func flushReplication(t *testing.T, s *Server) {
	t.Helper()
	if !s.FlushReplication(10 * time.Second) {
		t.Fatal("replication did not drain")
	}
}

// TestFailoverChaosParityWorkloads is the headline robustness check:
// for each of the nine paper workloads, an owner streams checkpoints to
// its ring successor, dies without warning at a random chunk boundary,
// the successor adopts the replicated image on the next request, and
// the client replays its tail (riding the 409 gap responses via
// X-Lpp-Want-Seq). Every re-sent chunk must produce a byte-identical
// response to the one the dead owner acknowledged —
// zero acknowledged events lost — and the post-failover session state
// (detector, consumer chain, predictor) must match an uninterrupted
// run exactly.
func TestFailoverChaosParityWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("nine-workload failover sweep is seconds-long; skipped in -short")
	}
	cases := []struct {
		name          string
		params        workload.Params
		keepIrregular bool
	}{
		{"fft", workload.Params{N: 512, Steps: 6, Seed: 1}, false},
		{"applu", workload.Params{N: 14, Steps: 5, Seed: 1}, false},
		{"compress", workload.Params{N: 8192, Steps: 5, Seed: 1}, false},
		{"gcc", workload.Params{N: 60, Steps: 20, Seed: 1}, true},
		{"tomcatv", workload.Params{N: 48, Steps: 6, Seed: 1}, false},
		{"swim", workload.Params{N: 48, Steps: 6, Seed: 1}, false},
		{"vortex", workload.Params{N: 1 << 12, Steps: 6, Seed: 1}, true},
		{"mesh", workload.Params{N: 2048, Steps: 6, Seed: 1}, false},
		{"moldyn", workload.Params{N: 200, Steps: 6, Seed: 1}, false},
	}
	// Fixed seed: the kill point is arbitrary but the run reproducible.
	rng := rand.New(rand.NewSource(20260808))
	const failConsumers = "predictor,cacheresize"
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			spec, err := workload.ByName(c.name)
			if err != nil {
				t.Fatal(err)
			}
			var col collector
			spec.Make(c.params).Run(&col)
			dcfg := online.Config{KeepIrregular: c.keepIrregular}
			want := expectedCfg(dcfg, col.events)
			if len(want) == 0 {
				t.Fatalf("%s produced no phase events", c.name)
			}
			wantConsumers := referenceConsumers(t, failConsumers,
				expectedPreFlush(dcfg, col.events))
			bounds := chunkBounds(len(col.events), 10)
			killChunk := 1 + rng.Intn(len(bounds)-2) // never first or last

			consumers := func() *phase.Chain {
				ch, err := phase.ParseChain(failConsumers)
				if err != nil {
					panic(err)
				}
				return ch
			}
			cfg := Config{
				Detector: dcfg, DataDir: t.TempDir(), CheckpointEvery: 3,
				Consumers: consumers,
			}
			ring := startRing(t, cfg, Config{
				Detector: dcfg, DataDir: t.TempDir(), CheckpointEvery: 3,
				Consumers: consumers,
			})
			s1, sB := ring[0], ring[1]

			// The client's view: every acknowledged chunk's response.
			acked := make([][]byte, len(bounds))
			for i := 0; i <= killChunk; i++ {
				rr := postSeq(t, s1.Handler(), "fo", uint64(i+1), col.events[bounds[i][0]:bounds[i][1]])
				if rr.Code != http.StatusOK {
					t.Fatalf("chunk %d: status %d: %s", i, rr.Code, rr.Body.String())
				}
				acked[i] = append([]byte(nil), rr.Body.Bytes()...)
			}
			// Let replication catch up, then the node dies where it
			// stands: nothing else is flushed.
			flushReplication(t, s1.Server)
			s1.kill()

			// Failover: the client switches base URL to the successor and
			// continues with its next sequence number. The successor
			// adopts the last replicated checkpoint, so the client may be
			// ahead: ride the 409, rewind to X-Lpp-Want-Seq, replay the
			// tail.
			h2 := sB.Handler()
			next := killChunk + 1
			rr := postSeq(t, h2, "fo", uint64(next+1), col.events[bounds[next][0]:bounds[next][1]])
			switch rr.Code {
			case http.StatusOK:
				acked[next] = append([]byte(nil), rr.Body.Bytes()...)
				next++
			case http.StatusConflict:
				wantSeq, err := strconv.ParseUint(rr.Header().Get("X-Lpp-Want-Seq"), 10, 64)
				if err != nil || wantSeq == 0 || wantSeq > uint64(next+1) {
					t.Fatalf("409 without usable X-Lpp-Want-Seq %q (next %d)",
						rr.Header().Get("X-Lpp-Want-Seq"), next)
				}
				next = int(wantSeq) - 1
			default:
				t.Fatalf("first post after failover: status %d: %s", rr.Code, rr.Body.String())
			}
			for i := next; i < len(bounds); i++ {
				rr := postSeq(t, h2, "fo", uint64(i+1), col.events[bounds[i][0]:bounds[i][1]])
				if rr.Code != http.StatusOK {
					t.Fatalf("chunk %d after failover: status %d: %s", i, rr.Code, rr.Body.String())
				}
				if i <= killChunk && !bytes.Equal(rr.Body.Bytes(), acked[i]) {
					// The dead owner acknowledged this chunk; the
					// successor must answer it identically or events
					// were lost.
					t.Fatalf("chunk %d replayed after failover diverges from the acknowledged response", i)
				}
				acked[i] = append([]byte(nil), rr.Body.Bytes()...)
			}

			// Post-failover consumer chain state must be byte-identical
			// to an uninterrupted run's.
			ci := do(t, h2, "GET", "/v1/sessions/fo/consumers")
			if ci.Code != http.StatusOK {
				t.Fatalf("consumers: status %d: %s", ci.Code, ci.Body.String())
			}
			var gotConsumers []consumerProbe
			if err := json.Unmarshal(ci.Body.Bytes(), &gotConsumers); err != nil {
				t.Fatalf("consumers body: %v", err)
			}
			if !reflect.DeepEqual(gotConsumers, wantConsumers) {
				t.Errorf("post-failover consumer state diverges:\n got %+v\nwant %+v",
					gotConsumers, wantConsumers)
			}

			var got []phaseWire
			for _, body := range acked {
				got = append(got, decodeResponse(t, body)...)
			}
			rr = do(t, h2, "DELETE", "/v1/sessions/fo")
			if rr.Code != http.StatusOK {
				t.Fatalf("delete: status %d: %s", rr.Code, rr.Body.String())
			}
			got = append(got, decodeResponse(t, rr.Body.Bytes())...)
			assertMatches(t, got, want)
		})
	}
}

// TestReplicaKnowledgeFailover: knowledge contributed on one node
// (session close) reaches its successor's store, which merges it entry
// by entry, and warm-starts sessions there after the node dies.
func TestReplicaKnowledgeFailover(t *testing.T) {
	events := fftEvents(t)
	consumers := func() *phase.Chain {
		return phase.NewChain(phase.NewPredictorConsumer(predictor.Strict))
	}
	storeA, err := knowledge.Open(filepath.Join(t.TempDir(), "knowledge.lpp"), nil, knowledge.Config{})
	if err != nil {
		t.Fatal(err)
	}
	storeB, err := knowledge.Open(filepath.Join(t.TempDir(), "knowledge.lpp"), nil, knowledge.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ring := startRing(t,
		Config{DataDir: t.TempDir(), Knowledge: storeA, Consumers: consumers},
		Config{DataDir: t.TempDir(), Knowledge: storeB, Consumers: consumers})
	s1, sB := ring[0], ring[1]

	// Training session: the close contributes to the store, which
	// enqueues a knowledge snapshot for the successor.
	chunked(t, s1.Handler(), "train", events, 10000, true)
	if storeA.Len() != 1 {
		t.Fatalf("owner store entries = %d, want 1", storeA.Len())
	}
	flushReplication(t, s1.Server)
	// Every entry arrived intact. Clocks and counters are each store's
	// own, so compare the entries through a fresh merge of each store.
	if !bytes.Equal(mergedEntries(t, storeA), mergedEntries(t, storeB)) {
		t.Fatal("successor's knowledge entries differ from the owner's")
	}
	// After the owner dies the merged knowledge warm-starts sessions on
	// the successor.
	s1.kill()
	chunked(t, sB.Handler(), "replay", events, 10000, true)
	if st := storeB.Stats(); st.Hits != 1 {
		t.Fatalf("warm-start hits on the successor = %d, want 1: %+v", st.Hits, st)
	}
}

// mergedEntries canonicalizes a store's entries: merged into an empty
// store, entries get clocks 1..n in fingerprint order and the counters
// stay zero, so two stores holding equal entries give equal bytes.
func mergedEntries(t *testing.T, st *knowledge.Store) []byte {
	t.Helper()
	fresh := knowledge.NewStore(knowledge.Config{})
	if err := fresh.MergeSnapshot(st.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return fresh.Snapshot()
}

// TestQuarantinedSessionCheckpointReplicates: a session that panics
// keeps answering a stable "quarantined" error, and the last good
// checkpoint it took before the panic is still on the successor — which
// adopts the session at that point once the owner dies.
func TestQuarantinedSessionCheckpointReplicates(t *testing.T) {
	events := syntheticEvents(21, 6, 6)
	bounds := chunkBounds(len(events), 6)
	ring := startRing(t,
		Config{DataDir: t.TempDir(), CheckpointEvery: 3},
		Config{DataDir: t.TempDir(), CheckpointEvery: 3})
	s1, sB := ring[0], ring[1]
	h := s1.Handler()

	// Three clean chunks: a checkpoint at seq 3 heads to the successor.
	for i := 0; i < 3; i++ {
		if rr := postSeq(t, h, "q", uint64(i+1), events[bounds[i][0]:bounds[i][1]]); rr.Code != http.StatusOK {
			t.Fatalf("chunk %d: status %d", i, rr.Code)
		}
	}
	flushReplication(t, s1.Server)

	// The fourth chunk panics the detector: quarantine.
	s1.testChunkHook = func() { panic("detector bug") }
	if rr := postSeq(t, h, "q", 4, events[bounds[3][0]:bounds[3][1]]); rr.Code != http.StatusInternalServerError ||
		!strings.Contains(rr.Body.String(), "quarantined") {
		t.Fatalf("panicking chunk: status %d body %s", rr.Code, rr.Body.String())
	}
	s1.testChunkHook = nil
	// Ingest after quarantine returns the same stable error, and never
	// advances the replicated state.
	for i := 0; i < 2; i++ {
		if rr := postSeq(t, h, "q", 4, events[bounds[3][0]:bounds[3][1]]); rr.Code != http.StatusInternalServerError ||
			!strings.Contains(rr.Body.String(), "quarantined") {
			t.Fatalf("ingest after quarantine: status %d body %s", rr.Code, rr.Body.String())
		}
	}

	// The successor still holds the seq-3 checkpoint (the panic never
	// poisoned it), and adopts the session there once the owner dies.
	st := replicaStatus(t, sB.Server, s1.Advertise())
	if st.Sessions["q"] != 3 {
		t.Fatalf("successor holds seq %d for quarantined session, want 3", st.Sessions["q"])
	}
	s1.kill()
	// The adopted copy is healthy at seq 3: chunk 4 (the one that
	// killed the owner's copy) feeds normally.
	if rr := postSeq(t, sB.Handler(), "q", 4, events[bounds[3][0]:bounds[3][1]]); rr.Code != http.StatusOK {
		t.Fatalf("chunk 4 on the successor: status %d: %s", rr.Code, rr.Body.String())
	}
}

// replicaPath is origin's replica namespace on a receiver.
func replicaPath(origin string) string {
	return "/v1/replica/" + url.PathEscape(origin)
}

// replicaStatus fetches what s holds from origin.
func replicaStatus(t *testing.T, s *Server, origin string) replica.Status {
	t.Helper()
	rr := do(t, s.Handler(), "GET", replicaPath(origin)+"/status")
	if rr.Code != http.StatusOK {
		t.Fatalf("replica status: %d", rr.Code)
	}
	var st replica.Status
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRetryAfterHint: a backpressured POST carries both the standard
// Retry-After header and the ms-precision X-Lpp-Retry-After-Ms hint.
func TestRetryAfterHint(t *testing.T) {
	s := mustServer(t, Config{QueueDepth: 1})
	defer s.Close()
	h := s.Handler()
	events := syntheticEvents(23, 2, 2)

	// Stall the worker on the first chunk so the queue fills.
	block := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	s.testChunkHook = func() {
		once.Do(func() {
			close(entered)
			<-block
		})
	}
	go postSeq(t, h, "bp", 1, events[:100])
	<-entered
	// The worker is stalled and the queue holds one slot: of these six
	// concurrent posts, at most one enqueues (and blocks until the
	// worker resumes); the rest bounce with 429.
	rejected := make(chan *httptest.ResponseRecorder, 6)
	for i := 0; i < 6; i++ {
		seq := uint64(2 + i)
		go func() {
			if rr := postSeq(t, h, "bp", seq, events[:100]); rr.Code == http.StatusTooManyRequests {
				rejected <- rr
			}
		}()
	}
	var rr *httptest.ResponseRecorder
	select {
	case rr = <-rejected:
	case <-time.After(5 * time.Second):
		t.Fatal("never saw 429 under backpressure")
	}
	close(block)
	if rr.Header().Get("Retry-After") != "1" {
		t.Errorf("429 Retry-After = %q, want \"1\"", rr.Header().Get("Retry-After"))
	}
	ms, err := strconv.ParseInt(rr.Header().Get("X-Lpp-Retry-After-Ms"), 10, 64)
	if err != nil || ms < 5 || ms > 1000 {
		t.Errorf("429 X-Lpp-Retry-After-Ms = %q, want 5..1000", rr.Header().Get("X-Lpp-Retry-After-Ms"))
	}
}
