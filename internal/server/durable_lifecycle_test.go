package server

// Durability lifecycle tests: quarantine, the idle reaper, graceful
// close, and WAL fault injection. Split from durable_test.go, which
// keeps the seq protocol and chaos-recovery parity suites.

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"lpp/internal/faultfs"
	"lpp/internal/online"
)

// TestQuarantineAfterPanic: a panic while feeding the detector must
// quarantine the session — 500 with a "quarantined" body on every
// later request — not crash the server or corrupt other sessions.
func TestQuarantineAfterPanic(t *testing.T) {
	s := mustServer(t, Config{})
	defer s.Close()
	h := s.Handler()
	events := syntheticEvents(13, 2, 2)
	s.testChunkHook = func() { panic("detector bug") }
	rr := postSeq(t, h, "q", 1, events[:100])
	if rr.Code != http.StatusInternalServerError || !strings.Contains(rr.Body.String(), "quarantined") {
		t.Fatalf("panicking chunk: status %d body %s", rr.Code, rr.Body.String())
	}
	s.testChunkHook = nil
	// The worker survives but refuses the detector.
	if rr := postSeq(t, h, "q", 2, events[:100]); rr.Code != http.StatusInternalServerError ||
		!strings.Contains(rr.Body.String(), "quarantined") {
		t.Fatalf("post after quarantine: status %d body %s", rr.Code, rr.Body.String())
	}
	stats := do(t, h, "GET", "/v1/sessions/q/stats")
	var st map[string]int64
	json.Unmarshal(stats.Body.Bytes(), &st)
	if st["quarantined"] != 1 {
		t.Fatalf("stats quarantined = %d, want 1", st["quarantined"])
	}
	if body := do(t, h, "GET", "/metrics").Body.String(); !strings.Contains(body, "lpp_session_panics_total 1") {
		t.Errorf("metrics missing panic count:\n%s", body)
	}
	// Other sessions are unaffected.
	if rr := postSeq(t, h, "healthy", 1, events[:100]); rr.Code != http.StatusOK {
		t.Fatalf("healthy session: status %d", rr.Code)
	}
	// DELETE still tears the quarantined session down.
	if rr := do(t, h, "DELETE", "/v1/sessions/q"); rr.Code != http.StatusInternalServerError {
		t.Fatalf("delete quarantined: status %d", rr.Code)
	}
	if rr := do(t, h, "GET", "/v1/sessions/q/stats"); rr.Code != http.StatusNotFound {
		t.Fatalf("quarantined session survives delete (status %d)", rr.Code)
	}
}

// TestIdleReaperSuspends: an idle durable session is checkpointed and
// evicted, then transparently recovered by the next request, with no
// detector state lost.
func TestIdleReaperSuspends(t *testing.T) {
	dir := t.TempDir()
	s := mustServer(t, Config{DataDir: dir, IdleTimeout: 30 * time.Millisecond})
	defer s.Close()
	h := s.Handler()
	events := syntheticEvents(14, 6, 6)
	bounds := chunkBounds(len(events), 2)
	want := expectedCfg(online.Config{}, events)
	if len(want) == 0 {
		t.Fatal("workload produced no phase events")
	}

	var got []phaseWire
	rr := postSeq(t, h, "idle", 1, events[bounds[0][0]:bounds[0][1]])
	if rr.Code != http.StatusOK {
		t.Fatalf("chunk 1: status %d", rr.Code)
	}
	got = append(got, decodeResponse(t, rr.Body.Bytes())...)

	// Poll the metric, not the session map: eviction from the map
	// happens before the checkpoint finishes and the counter ticks.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if body := do(t, h, "GET", "/metrics").Body.String(); strings.Contains(body, "lpp_sessions_reaped_total 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session not reaped within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The next chunk recovers the session where it left off.
	rr = postSeq(t, h, "idle", 2, events[bounds[1][0]:bounds[1][1]])
	if rr.Code != http.StatusOK {
		t.Fatalf("chunk 2 after reap: status %d: %s", rr.Code, rr.Body.String())
	}
	got = append(got, decodeResponse(t, rr.Body.Bytes())...)
	rr = do(t, h, "DELETE", "/v1/sessions/idle")
	if rr.Code != http.StatusOK {
		t.Fatalf("delete: status %d", rr.Code)
	}
	got = append(got, decodeResponse(t, rr.Body.Bytes())...)
	assertMatches(t, got, want)
}

// TestGracefulCloseLeavesSessionsRecoverable: Close checkpoints every
// session; a new server over the same directory resumes them.
func TestGracefulCloseLeavesSessionsRecoverable(t *testing.T) {
	dir := t.TempDir()
	events := syntheticEvents(15, 6, 6)
	bounds := chunkBounds(len(events), 3)
	want := expectedCfg(online.Config{}, events)

	var got []phaseWire
	s1 := mustServer(t, Config{DataDir: dir})
	for i := 0; i < 2; i++ {
		rr := postSeq(t, s1.Handler(), "g", uint64(i+1), events[bounds[i][0]:bounds[i][1]])
		if rr.Code != http.StatusOK {
			t.Fatalf("chunk %d: status %d", i, rr.Code)
		}
		got = append(got, decodeResponse(t, rr.Body.Bytes())...)
	}
	s1.Close() // graceful: checkpoint, not flush

	s2 := mustServer(t, Config{DataDir: dir})
	defer s2.Close()
	rr := postSeq(t, s2.Handler(), "g", 3, events[bounds[2][0]:bounds[2][1]])
	if rr.Code != http.StatusOK {
		t.Fatalf("chunk 3 after close: status %d: %s", rr.Code, rr.Body.String())
	}
	got = append(got, decodeResponse(t, rr.Body.Bytes())...)
	rr = do(t, s2.Handler(), "DELETE", "/v1/sessions/g")
	if rr.Code != http.StatusOK {
		t.Fatalf("delete: status %d", rr.Code)
	}
	got = append(got, decodeResponse(t, rr.Body.Bytes())...)
	assertMatches(t, got, want)

	// DELETE discarded the durable state too.
	if n, err := s2.RecoverSessions(); err != nil || n != 0 {
		t.Fatalf("durable state survives delete: %d sessions, %v", n, err)
	}
}

// TestWALErrorSurfaces: an injected disk fault on the WAL append makes
// the chunk fail closed (500, not applied); once the disk heals, the
// same sequence number succeeds.
func TestWALErrorSurfaces(t *testing.T) {
	inj := faultfs.NewInjector(nil)
	s := mustServer(t, Config{DataDir: t.TempDir(), FS: inj})
	defer s.Close()
	h := s.Handler()
	events := syntheticEvents(16, 2, 2)

	if rr := postSeq(t, h, "w", 1, events[:200]); rr.Code != http.StatusOK {
		t.Fatalf("chunk 1: status %d", rr.Code)
	}
	inj.FailWritesAfter(0, nil)
	rr := postSeq(t, h, "w", 2, events[200:400])
	if rr.Code != http.StatusInternalServerError || !strings.Contains(rr.Body.String(), "wal append failed") {
		t.Fatalf("chunk under fault: status %d body %s", rr.Code, rr.Body.String())
	}
	inj.Disarm()
	// Same seq again: the failed chunk was never applied, so this is
	// not a duplicate.
	rr = postSeq(t, h, "w", 2, events[200:400])
	if rr.Code != http.StatusOK || rr.Header().Get("X-Lpp-Replayed") == "true" {
		t.Fatalf("chunk after heal: status %d replayed %q", rr.Code, rr.Header().Get("X-Lpp-Replayed"))
	}
	if body := do(t, h, "GET", "/metrics").Body.String(); !strings.Contains(body, "lpp_wal_errors_total 1") {
		t.Errorf("metrics missing wal error:\n%s", body)
	}
}
