package replica

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"lpp/internal/durable"
	"lpp/internal/faultfs"
)

// fakePeer is a minimal in-memory replica target implementing the
// namespace surface the Replicator speaks.
type fakePeer struct {
	mu        sync.Mutex
	owned     map[string]bool // sessions served here: images refused
	refused   int
	sessions  map[string]uint64
	images    map[string][]byte
	knowledge []byte
	noStore   bool // answer 404 on knowledge PUTs
}

func newFakePeer() *fakePeer {
	return &fakePeer{owned: make(map[string]bool), sessions: make(map[string]uint64), images: make(map[string][]byte)}
}

func (p *fakePeer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		p.mu.Lock()
		st := Status{Sessions: make(map[string]uint64, len(p.sessions))}
		for id, seq := range p.sessions {
			st.Sessions[id] = seq
		}
		p.mu.Unlock()
		json.NewEncoder(w).Encode(st)
	})
	mux.HandleFunc("PUT /sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		seq, _, _, err := durable.DecodeCheckpoint(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		id := r.PathValue("id")
		p.mu.Lock()
		if p.owned[id] {
			p.refused++
			p.mu.Unlock()
			http.Error(w, "session is owned here", http.StatusConflict)
			return
		}
		if seq >= p.sessions[id] {
			p.sessions[id] = seq
			p.images[id] = body
		}
		p.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("DELETE /sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		p.mu.Lock()
		delete(p.sessions, id)
		delete(p.images, id)
		p.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("PUT /knowledge", func(w http.ResponseWriter, r *http.Request) {
		p.mu.Lock()
		noStore := p.noStore
		p.mu.Unlock()
		if noStore {
			http.Error(w, "no knowledge store", http.StatusNotFound)
			return
		}
		body, _ := io.ReadAll(r.Body)
		p.mu.Lock()
		p.knowledge = body
		p.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

func (p *fakePeer) seq(id string) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sessions[id]
}

func (p *fakePeer) sessionCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.sessions)
}

// testReplicator builds a fast-backoff Replicator against peer.
func testReplicator(t *testing.T, peerURL string, transport http.RoundTripper, source func() []Checkpoint, know func() []byte) *Replicator {
	t.Helper()
	if source == nil {
		source = func() []Checkpoint { return nil }
	}
	r, err := New(Config{
		Peer:       peerURL,
		QueueDepth: 4,
		Timeout:    250 * time.Millisecond,
		MinBackoff: time.Millisecond,
		MaxBackoff: 10 * time.Millisecond,
		Transport:  transport,
		Source:     source,
		Knowledge:  know,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	return r
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func ck(id string, seq uint64) Checkpoint {
	return Checkpoint{Session: id, Seq: seq, Snapshot: []byte("snap-" + id), Response: []byte("resp")}
}

func TestCheckpointDeliveryAndCoalescing(t *testing.T) {
	peer := newFakePeer()
	srv := httptest.NewServer(peer.handler())
	defer srv.Close()
	r := testReplicator(t, srv.URL, nil, nil, nil)

	r.EnqueueCheckpoint(ck("a", 1))
	waitUntil(t, "first checkpoint", func() bool { return peer.seq("a") == 1 })
	// A burst of images for one session may coalesce; the newest must
	// win regardless.
	for seq := uint64(2); seq <= 6; seq++ {
		r.EnqueueCheckpoint(ck("a", seq))
	}
	waitUntil(t, "newest checkpoint", func() bool { return peer.seq("a") == 6 })
	if !r.Flush(5 * time.Second) {
		t.Fatal("queue did not drain")
	}
	st := r.Stats()
	if st.Sent == 0 || !st.Connected || st.Dropped != 0 {
		t.Fatalf("stats after delivery: %+v", st)
	}
	if st.LagP99 <= 0 {
		t.Fatalf("no lag samples recorded: %+v", st)
	}
}

func TestRemoveFollowsCheckpoint(t *testing.T) {
	peer := newFakePeer()
	srv := httptest.NewServer(peer.handler())
	defer srv.Close()
	r := testReplicator(t, srv.URL, nil, nil, nil)

	r.EnqueueCheckpoint(ck("gone", 3))
	r.EnqueueRemove("gone")
	waitUntil(t, "removal", func() bool {
		return r.Flush(time.Millisecond) && peer.seq("gone") == 0
	})
}

func TestOutageRetriesThenResyncRepairsDrops(t *testing.T) {
	peer := newFakePeer()
	srv := httptest.NewServer(peer.handler())
	defer srv.Close()
	ft := faultfs.NewHTTPTransport(nil)
	// Total outage: every request fails until disarmed.
	ft.Repeat(100000, faultfs.HTTPFault{Err: errors.New("peer down")})

	// The resync source knows every session's latest image — including
	// the ones the queue dropped during the outage.
	var mu sync.Mutex
	latest := make(map[string]Checkpoint)
	source := func() []Checkpoint {
		mu.Lock()
		defer mu.Unlock()
		out := make([]Checkpoint, 0, len(latest))
		for _, c := range latest {
			out = append(out, c)
		}
		return out
	}
	r := testReplicator(t, srv.URL, ft, source, nil)

	// Overflow the depth-4 queue with six distinct sessions.
	for _, id := range []string{"s0", "s1", "s2", "s3", "s4", "s5"} {
		c := ck(id, 2)
		mu.Lock()
		latest[id] = c
		mu.Unlock()
		r.EnqueueCheckpoint(c)
	}
	waitUntil(t, "drop-oldest under outage", func() bool {
		st := r.Stats()
		return st.Dropped >= 2 && st.Errors > 0 && !st.Connected
	})
	// Heal the peer: the reconnect resync must deliver all six
	// sessions, dropped ones included.
	ft.Script()
	waitUntil(t, "resync repair", func() bool { return peer.sessionCount() == 6 })
	for _, id := range []string{"s0", "s1", "s2", "s3", "s4", "s5"} {
		if peer.seq(id) != 2 {
			t.Fatalf("session %s at seq %d after resync, want 2", id, peer.seq(id))
		}
	}
	if st := r.Stats(); st.Resyncs == 0 || !st.Connected {
		t.Fatalf("stats after repair: %+v", st)
	}
}

func TestLatencyAndPartialBodyFaults(t *testing.T) {
	peer := newFakePeer()
	srv := httptest.NewServer(peer.handler())
	defer srv.Close()
	ft := faultfs.NewHTTPTransport(nil)
	// First request hangs past the 250ms request timeout, the second
	// returns a torn body, the third answers 500; then the peer heals.
	ft.Script(
		faultfs.HTTPFault{Latency: 2 * time.Second},
		faultfs.HTTPFault{TruncateBody: 1},
		faultfs.HTTPFault{Status: http.StatusInternalServerError},
	)
	r := testReplicator(t, srv.URL, ft, nil, nil)
	r.EnqueueCheckpoint(ck("a", 1))
	waitUntil(t, "delivery after faults", func() bool { return peer.seq("a") == 1 })
	if st := r.Stats(); st.Errors < 3 {
		t.Fatalf("errors = %d, want >= 3 (latency, torn body, 500): %+v", st.Errors, st)
	}
}

func TestResyncDeletesOrphansAndShipsKnowledge(t *testing.T) {
	peer := newFakePeer()
	peer.sessions["ghost"] = 9
	peer.images["ghost"] = []byte("stale")
	srv := httptest.NewServer(peer.handler())
	defer srv.Close()

	source := func() []Checkpoint { return []Checkpoint{ck("live", 5)} }
	know := func() []byte { return []byte("LPPKNW1 snapshot bytes") }
	r := testReplicator(t, srv.URL, nil, source, know)
	waitUntil(t, "orphan deletion + knowledge", func() bool {
		peer.mu.Lock()
		defer peer.mu.Unlock()
		_, ghost := peer.sessions["ghost"]
		return !ghost && peer.sessions["live"] == 5 && peer.knowledge != nil
	})
	if st := r.Stats(); st.Resyncs == 0 {
		t.Fatalf("no resync recorded: %+v", st)
	}
}

func TestKnowledgePeerWithoutStoreIsNotAnError(t *testing.T) {
	peer := newFakePeer()
	peer.noStore = true
	srv := httptest.NewServer(peer.handler())
	defer srv.Close()
	r := testReplicator(t, srv.URL, nil, nil, nil)
	r.EnqueueKnowledge([]byte("snapshot"))
	r.EnqueueCheckpoint(ck("a", 1))
	waitUntil(t, "checkpoint past 404 knowledge", func() bool { return peer.seq("a") == 1 })
	if st := r.Stats(); st.Errors != 0 {
		t.Fatalf("404 on knowledge counted as error: %+v", st)
	}
}

// TestOwnedRefusalIsSettled: a peer that serves the session itself
// refuses its image with 409. The replicator treats that as settled —
// no error, no retry — and the queue drains past it.
func TestOwnedRefusalIsSettled(t *testing.T) {
	peer := newFakePeer()
	peer.owned["a"] = true
	srv := httptest.NewServer(peer.handler())
	defer srv.Close()
	r := testReplicator(t, srv.URL, nil, nil, nil)
	r.EnqueueCheckpoint(ck("a", 1))
	r.EnqueueCheckpoint(ck("b", 1))
	waitUntil(t, "delivery past the refusal", func() bool { return peer.seq("b") == 1 })
	if !r.Flush(5 * time.Second) {
		t.Fatalf("queue did not drain past a refusal: %+v", r.Stats())
	}
	peer.mu.Lock()
	refused := peer.refused
	peer.mu.Unlock()
	if peer.seq("a") != 0 || refused != 1 {
		t.Fatalf("owned session: held seq %d, refusals %d; want 0 and exactly 1 (no retry)", peer.seq("a"), refused)
	}
	if st := r.Stats(); st.Errors != 0 || !st.Connected {
		t.Fatalf("refusal counted as a failure: %+v", st)
	}
}
