package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lpp/internal/durable"
	"lpp/internal/online"
)

// The bookkeeping safety suite. Each case fails on a naive design where
// replica images and owned sessions share one store, or where orphan
// deletion is not scoped by origin.

// putImage PUTs a checkpoint image into origin's namespace on h.
func putImage(t *testing.T, h http.Handler, origin, id string, image []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("PUT", replicaPath(origin)+"/sessions/"+id, bytes.NewReader(image))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// detectorImage is a restorable LPPCKPT1 image of a detector fed the
// first n synthetic events, taken at seq.
func detectorImage(t *testing.T, n int, seq uint64) []byte {
	t.Helper()
	det := online.NewDetector(online.Config{})
	det.AccessBatch(syntheticEvents(31, 4, 3)[:n])
	return durable.EncodeCheckpoint(seq, det.Snapshot(), nil)
}

func sessionSeq(t *testing.T, h http.Handler, id string) int64 {
	t.Helper()
	rr := do(t, h, "GET", "/v1/sessions/"+id+"/stats")
	if rr.Code != http.StatusOK {
		t.Fatalf("stats %s: status %d: %s", id, rr.Code, rr.Body.String())
	}
	var stats map[string]int64
	if err := json.Unmarshal(rr.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	return stats["seq"]
}

// TestMigrateToSuccessorKeepsTargetSession: X migrates from S to T where
// T is also S's successor for X. S's remove at complete reaches T's
// replica namespace for S and must not delete the X that T now owns.
func TestMigrateToSuccessorKeepsTargetSession(t *testing.T) {
	events := syntheticEvents(24, 4, 4)
	bounds := chunkBounds(len(events), 6)
	ring := startRing(t,
		Config{DataDir: t.TempDir(), CheckpointEvery: 1},
		Config{DataDir: t.TempDir(), CheckpointEvery: 1})
	src, dst := ring[0], ring[1]
	for i := 0; i < 3; i++ {
		if rr := postSeq(t, src.Handler(), "x", uint64(i+1), events[bounds[i][0]:bounds[i][1]]); rr.Code != http.StatusOK {
			t.Fatalf("chunk %d: status %d", i, rr.Code)
		}
	}
	flushReplication(t, src.Server)
	if got := replicaStatus(t, dst.Server, src.Advertise()).Sessions["x"]; got != 3 {
		t.Fatalf("successor holds seq %d before migration, want 3", got)
	}

	// The three migration steps, as cluster.Migrate issues them.
	rr := post(t, src.Handler(), "/v1/migrate/sessions/x/export", "", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("export: %d %s", rr.Code, rr.Body.String())
	}
	req := httptest.NewRequest("PUT", "/v1/migrate/sessions/x", bytes.NewReader(rr.Body.Bytes()))
	ir := httptest.NewRecorder()
	dst.Handler().ServeHTTP(ir, req)
	if ir.Code != http.StatusNoContent {
		t.Fatalf("import: %d %s", ir.Code, ir.Body.String())
	}
	if rr := post(t, src.Handler(), "/v1/migrate/sessions/x/complete?target="+dst.Advertise(), "", nil); rr.Code != http.StatusNoContent {
		t.Fatalf("complete: %d %s", rr.Code, rr.Body.String())
	}
	// The remove S queued at complete has been delivered.
	flushReplication(t, src.Server)

	if len(replicaStatus(t, dst.Server, src.Advertise()).Sessions) != 0 {
		t.Fatal("target still holds a replica image of the session it owns")
	}
	if st, _ := dst.SessionState("x"); st != StateLocal {
		t.Fatalf("target's session state after S's remove = %s, want local", st)
	}
	if got := sessionSeq(t, dst.Handler(), "x"); got != 3 {
		t.Fatalf("target's session at seq %d, want 3", got)
	}
	if rr := postSeq(t, dst.Handler(), "x", 4, events[bounds[3][0]:bounds[3][1]]); rr.Code != http.StatusOK {
		t.Fatalf("chunk 4 on the target: status %d: %s", rr.Code, rr.Body.String())
	}
	// Suspend the session: its owned durable state survives too.
	dst.Close()
	if !dst.store.Exists("x") {
		t.Fatal("target's owned durable state for x was deleted")
	}
}

// TestResyncOrphanPassScopedToOrigin: an origin's resync deletes the
// images it no longer owns from its own namespace only — never another
// origin's images of the same id, never a session the receiver owns.
func TestResyncOrphanPassScopedToOrigin(t *testing.T) {
	recv := mustServer(t, Config{DataDir: t.TempDir()})
	defer recv.Close()
	hs := httptest.NewServer(recv.Handler())
	defer hs.Close()
	const originS, originU = "http://s.test:1", "http://u.test:1"
	image := detectorImage(t, 500, 2)
	for _, put := range []struct{ origin, id string }{
		{originS, "ghost"}, {originU, "ghost"}, {originU, "u1"},
	} {
		if rr := putImage(t, recv.Handler(), put.origin, put.id, image); rr.Code != http.StatusNoContent {
			t.Fatalf("seed %s/%s: status %d: %s", put.origin, put.id, rr.Code, rr.Body.String())
		}
	}
	events := syntheticEvents(25, 2, 2)
	if rr := postSeq(t, recv.Handler(), "mine", 1, events[:200]); rr.Code != http.StatusOK {
		t.Fatalf("owned session: status %d", rr.Code)
	}

	// S no longer owns "ghost": the resync its first checkpoint starts
	// finds the image orphaned.
	sender := mustServer(t, Config{
		DataDir: t.TempDir(), Advertise: originS, CheckpointEvery: 1,
		Successor: func(string) string { return hs.URL },
	})
	defer sender.Close()
	if rr := postSeq(t, sender.Handler(), "live", 1, events[:200]); rr.Code != http.StatusOK {
		t.Fatalf("sender session: status %d", rr.Code)
	}
	flushReplication(t, sender)

	if got := replicaStatus(t, recv, originS).Sessions; len(got) != 1 || got["live"] != 1 {
		t.Fatalf("S's namespace after its resync = %v, want only live at seq 1", got)
	}
	if got := replicaStatus(t, recv, originU).Sessions; len(got) != 2 || got["ghost"] != 2 || got["u1"] != 2 {
		t.Fatalf("U's namespace after S's resync = %v, want ghost and u1 at seq 2", got)
	}
	if got := sessionSeq(t, recv.Handler(), "mine"); got != 1 {
		t.Fatalf("receiver's own session at seq %d after S's resync, want 1", got)
	}
}

// TestReplicaSplitSurvivesRestart: a receiver restarted over the same
// DataDir still tells replica images from owned sessions — recovery
// revives only the owned ones, and each origin's status is intact.
func TestReplicaSplitSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	const origin = "http://s.test:1"
	events := syntheticEvents(26, 2, 2)
	s1 := mustServer(t, Config{DataDir: dir, CheckpointEvery: 1})
	for _, id := range []string{"x", "z"} {
		if rr := putImage(t, s1.Handler(), origin, id, detectorImage(t, 800, 3)); rr.Code != http.StatusNoContent {
			t.Fatalf("replica PUT %s: status %d: %s", id, rr.Code, rr.Body.String())
		}
	}
	if rr := postSeq(t, s1.Handler(), "own", 1, events[:200]); rr.Code != http.StatusOK {
		t.Fatalf("owned session: status %d", rr.Code)
	}
	s1.Close()

	s2 := mustServer(t, Config{DataDir: dir, CheckpointEvery: 1})
	defer s2.Close()
	n, err := s2.RecoverSessions()
	if err != nil || n != 1 {
		t.Fatalf("recovered %d session(s), %v; want only the owned one", n, err)
	}
	rr := do(t, s2.Handler(), "GET", "/v1/sessions")
	if body := rr.Body.String(); !strings.Contains(body, `"own"`) || strings.Contains(body, `"x"`) || strings.Contains(body, replicaDir) {
		t.Fatalf("listing after restart mixes replicas into owned sessions: %s", body)
	}
	if got := replicaStatus(t, s2, origin).Sessions; len(got) != 2 || got["x"] != 3 || got["z"] != 3 {
		t.Fatalf("origin's images after restart = %v, want x and z at seq 3", got)
	}
	// A session held only as an image still closes: DELETE adopts it.
	if rr := do(t, s2.Handler(), "DELETE", "/v1/sessions/z"); rr.Code != http.StatusOK {
		t.Fatalf("DELETE of a replicated session: status %d: %s", rr.Code, rr.Body.String())
	}
	// The image is still adoptable: x resumes at seq 3.
	rr = postSeq(t, s2.Handler(), "x", 9, events[:100])
	if rr.Code != http.StatusConflict || rr.Header().Get("X-Lpp-Want-Seq") != "4" {
		t.Fatalf("first chunk for the replicated session: status %d want-seq %q, want 409 and 4",
			rr.Code, rr.Header().Get("X-Lpp-Want-Seq"))
	}
}

// TestReplicaPutRefusedForOwnedSession: a node never overwrites a
// session it serves — live or suspended — with a replica image.
func TestReplicaPutRefusedForOwnedSession(t *testing.T) {
	s := mustServer(t, Config{DataDir: t.TempDir(), CheckpointEvery: 1})
	defer s.Close()
	const origin = "http://s.test:1"
	events := syntheticEvents(27, 2, 2)
	for seq := uint64(1); seq <= 2; seq++ {
		if rr := postSeq(t, s.Handler(), "x", seq, events[:100*seq]); rr.Code != http.StatusOK {
			t.Fatalf("chunk %d: status %d", seq, rr.Code)
		}
	}
	image := detectorImage(t, 900, 50)
	if rr := putImage(t, s.Handler(), origin, "x", image); rr.Code != http.StatusConflict {
		t.Fatalf("replica PUT for a live session: status %d, want 409", rr.Code)
	}
	// Suspended (owned on disk, no worker) is still owned.
	sess, err := s.getSession("x", false)
	if err != nil {
		t.Fatal(err)
	}
	s.suspendSession(sess)
	if st, _ := s.SessionState("x"); st != StateSuspended {
		t.Fatalf("state after suspend = %s", st)
	}
	if rr := putImage(t, s.Handler(), origin, "x", image); rr.Code != http.StatusConflict {
		t.Fatalf("replica PUT for a suspended session: status %d, want 409", rr.Code)
	}
	if got := sessionSeqAfterRevive(t, s, "x"); got != 2 {
		t.Fatalf("owned session at seq %d after refused images, want 2", got)
	}
	if len(replicaStatus(t, s, origin).Sessions) != 0 {
		t.Fatal("a refused image was stored")
	}
	// An id served nowhere here is accepted.
	if rr := putImage(t, s.Handler(), origin, "y", image); rr.Code != http.StatusNoContent {
		t.Fatalf("replica PUT for a foreign session: status %d, want 204", rr.Code)
	}
}

// sessionSeqAfterRevive revives a suspended session, then reads its
// seq.
func sessionSeqAfterRevive(t *testing.T, s *Server, id string) int64 {
	t.Helper()
	sess, err := s.getSession(id, true)
	if err != nil {
		t.Fatal(err)
	}
	<-sess.ready
	return sessionSeq(t, s.Handler(), id)
}

// TestReplicationMetrics covers the replication series: sender series
// labeled by successor, and the receiver's applied, adopted and refused
// counters.
func TestReplicationMetrics(t *testing.T) {
	events := syntheticEvents(28, 4, 4)
	bounds := chunkBounds(len(events), 6)
	ring := startRing(t,
		Config{DataDir: t.TempDir(), CheckpointEvery: 2},
		Config{DataDir: t.TempDir(), CheckpointEvery: 2})
	a, b := ring[0], ring[1]
	for i := 0; i < 4; i++ {
		if rr := postSeq(t, a.Handler(), "m", uint64(i+1), events[bounds[i][0]:bounds[i][1]]); rr.Code != http.StatusOK {
			t.Fatalf("chunk %d: status %d", i, rr.Code)
		}
	}
	flushReplication(t, a.Server)
	body := do(t, a.Handler(), "GET", "/metrics").Body.String()
	peer := `{peer="` + b.Advertise() + `"}`
	if v := metricValue(t, body, "lpp_replica_sent_total"+peer); v < 1 {
		t.Fatalf("lpp_replica_sent_total%s = %d, want >= 1", peer, v)
	}
	if v := metricValue(t, body, "lpp_replica_connected"+peer); v != 1 {
		t.Fatalf("lpp_replica_connected%s = %d, want 1", peer, v)
	}
	if !strings.Contains(body, `lpp_replica_lag_seconds{peer="`+b.Advertise()+`",quantile="0.99"}`) {
		t.Fatalf("lag quantiles not labeled by peer:\n%s", body)
	}

	// Refused: b serves a session of its own that a ships an image of.
	if rr := postSeq(t, b.Handler(), "both", 1, events[:100]); rr.Code != http.StatusOK {
		t.Fatalf("b's own session: status %d", rr.Code)
	}
	if rr := putImage(t, b.Handler(), a.Advertise(), "both", detectorImage(t, 100, 7)); rr.Code != http.StatusConflict {
		t.Fatalf("refused PUT: status %d", rr.Code)
	}
	// Adopted: a dies, b takes m over from the seq-4 image.
	a.kill()
	rr := postSeq(t, b.Handler(), "m", 5, events[bounds[4][0]:bounds[4][1]])
	if rr.Code != http.StatusOK {
		t.Fatalf("chunk 5 on the successor: status %d: %s", rr.Code, rr.Body.String())
	}
	body = do(t, b.Handler(), "GET", "/metrics").Body.String()
	// Resync and queue may both deliver the same image: at least the
	// two checkpoints were applied.
	if v := metricValue(t, body, "lpp_replica_applied_total"); v < 2 {
		t.Errorf("lpp_replica_applied_total = %d, want >= 2", v)
	}
	if v := metricValue(t, body, "lpp_replica_adopted_total"); v != 1 {
		t.Errorf("lpp_replica_adopted_total = %d, want 1", v)
	}
	if v := metricValue(t, body, "lpp_replica_refused_total"); v != 1 {
		t.Errorf("lpp_replica_refused_total = %d, want 1", v)
	}
}
