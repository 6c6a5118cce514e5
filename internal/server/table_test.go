package server

// Session-table tests under concurrency: many sessions sharing the one
// table lock, the session cap, Close racing creates, and the migration
// claim.

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentIngestAcrossSessions hammers many sessions in parallel
// through the full HTTP path and then verifies per-session event
// counts: the shared table must never cross the streams or lose a
// chunk.
func TestConcurrentIngestAcrossSessions(t *testing.T) {
	s := mustServer(t, Config{QueueDepth: 32})
	defer s.Close()
	h := s.Handler()
	const sessions = 12
	const chunks = 6
	events := syntheticEvents(1, 1, 1)[:601]
	body := encodeNDJSON(events)
	var wg sync.WaitGroup
	errs := make(chan string, sessions*chunks)
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("s%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < chunks; c++ {
				rr := post(t, h, "/v1/sessions/"+id+"/events", "", body)
				for rr.Code == http.StatusTooManyRequests {
					rr = post(t, h, "/v1/sessions/"+id+"/events", "", body)
				}
				if rr.Code != http.StatusOK {
					errs <- fmt.Sprintf("%s chunk %d: status %d: %s", id, c, rr.Code, rr.Body.String())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("s%d", i)
		st := do(t, h, "GET", "/v1/sessions/"+id+"/stats")
		if st.Code != http.StatusOK {
			t.Fatalf("%s stats: %d", id, st.Code)
		}
		want := fmt.Sprintf(`"events":%d`, len(events)*chunks)
		if !strings.Contains(st.Body.String(), want) {
			t.Errorf("%s: stats %s missing %s", id, st.Body.String(), want)
		}
	}
}

// TestContendedSeqProtocol drives the idempotency protocol —
// duplicate-sequence replay and gap 409 — on one session while sibling
// sessions ingest concurrently. The protocol is per-session state owned
// by the worker; contention on the table lock must not let it misfire.
func TestContendedSeqProtocol(t *testing.T) {
	s := mustServer(t, Config{QueueDepth: 32})
	defer s.Close()
	h := s.Handler()
	ids := []string{"anchor", "contended-0", "contended-1", "contended-2"}
	events := syntheticEvents(2, 1, 1)[:301]

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, id := range ids[1:] {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for seq := uint64(1); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				rr := postSeq(t, h, id, seq, events)
				if rr.Code == http.StatusTooManyRequests {
					seq-- // retry the same chunk after backpressure
					continue
				}
				if rr.Code != http.StatusOK {
					t.Errorf("%s seq %d: status %d", id, seq, rr.Code)
					return
				}
			}
		}(id)
	}

	id := ids[0]
	first := postSeq(t, h, id, 1, events)
	if first.Code != http.StatusOK {
		t.Fatalf("seq 1: status %d: %s", first.Code, first.Body.String())
	}
	dup := postSeq(t, h, id, 1, events)
	if dup.Code != http.StatusOK || dup.Header().Get("X-Lpp-Replayed") != "true" {
		t.Fatalf("duplicate seq: status %d, X-Lpp-Replayed %q", dup.Code, dup.Header().Get("X-Lpp-Replayed"))
	}
	if dup.Body.String() != first.Body.String() {
		t.Error("replayed response differs from the original")
	}
	if rr := postSeq(t, h, id, 3, events); rr.Code != http.StatusConflict {
		t.Fatalf("sequence gap: status %d, want 409", rr.Code)
	}
	if rr := postSeq(t, h, id, 2, events); rr.Code != http.StatusOK {
		t.Fatalf("seq 2 after gap: status %d", rr.Code)
	}
	close(stop)
	wg.Wait()
}

// TestSessionLimitConcurrent: the cap is checked against the table's
// size in the same critical section that inserts, so a burst of
// concurrent creates must admit exactly MaxSessions.
func TestSessionLimitConcurrent(t *testing.T) {
	const maxSess = 8
	const attempts = 32
	s := mustServer(t, Config{MaxSessions: maxSess})
	defer s.Close()
	h := s.Handler()
	body := encodeNDJSON(syntheticEvents(3, 1, 1)[:50])
	codes := make([]int, attempts)
	var wg sync.WaitGroup
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rr := post(t, h, fmt.Sprintf("/v1/sessions/cap%d/events", i), "", body)
			codes[i] = rr.Code
		}(i)
	}
	wg.Wait()
	ok, refused := 0, 0
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			refused++
		default:
			t.Fatalf("create %d: unexpected status %d", i, c)
		}
	}
	if ok != maxSess || refused != attempts-maxSess {
		t.Errorf("admitted %d, refused %d; want exactly %d and %d", ok, refused, maxSess, attempts-maxSess)
	}
	if got := s.liveSessions(); got != maxSess {
		t.Errorf("live sessions = %d, want %d", got, maxSess)
	}
	// Deleting one session must free exactly one slot.
	var victim string
	for i := 0; i < attempts; i++ {
		if codes[i] == http.StatusOK {
			victim = fmt.Sprintf("cap%d", i)
			break
		}
	}
	if rr := do(t, h, "DELETE", "/v1/sessions/"+victim); rr.Code != http.StatusOK {
		t.Fatalf("delete %s: status %d", victim, rr.Code)
	}
	if rr := post(t, h, "/v1/sessions/freed/events", "", body); rr.Code != http.StatusOK {
		t.Errorf("create after delete: status %d, want 200", rr.Code)
	}
	if rr := post(t, h, "/v1/sessions/one-too-many/events", "", body); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("create past refilled cap: status %d, want 503", rr.Code)
	}
}

// TestCloseRacingCreate: Close and session creation may interleave
// arbitrarily; afterwards the server must be refusing requests and no
// created session may be left running outside the drain.
func TestCloseRacingCreate(t *testing.T) {
	for round := 0; round < 20; round++ {
		s := mustServer(t, Config{})
		body := encodeNDJSON(syntheticEvents(4, 1, 1)[:50])
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				post(t, s.Handler(), fmt.Sprintf("/v1/sessions/r%d/events", i), "", body)
			}(i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Close()
		}()
		wg.Wait()
		if _, err := s.getSession("late", true); err != errServerClosed {
			t.Fatalf("round %d: create after close: %v, want errServerClosed", round, err)
		}
		if n := s.liveSessions(); n != 0 {
			t.Fatalf("round %d: table still holds %d sessions after Close", round, n)
		}
	}
}

// TestConcurrentExportsExactlyOneWins: of concurrent exports of one
// session, exactly one claims the migration and ships an image; the
// rest back off with 409 (or 503 when they lost the teardown race) and
// never touch the winner's claim. Ingest racing the exports sees only
// 200 (processed before the export) or 503 (refused mid-migration), and
// after an abort the session revives locally at the exported seq. The
// session starts live, then suspended: reviving it holds every exporter
// at the restore, so they all reach the claim together.
func TestConcurrentExportsExactlyOneWins(t *testing.T) {
	s := mustServer(t, Config{DataDir: t.TempDir()})
	defer s.Close()
	for _, suspended := range []bool{false, true} {
		id := fmt.Sprintf("race-suspended-%v", suspended)
		raceExports(t, s, id, suspended)
	}
}

func raceExports(t *testing.T, s *Server, id string, suspended bool) {
	const exporters = 8
	const ingesters = 2
	h := s.Handler()
	events := syntheticEvents(6, 1, 1)[:301]
	if rr := postSeq(t, h, id, 1, events); rr.Code != http.StatusOK {
		t.Fatalf("%s seq 1: status %d: %s", id, rr.Code, rr.Body.String())
	}
	if suspended {
		sess, err := s.getSession(id, false)
		if err != nil || !s.suspendSession(sess) {
			t.Fatalf("%s: suspend failed: %v", id, err)
		}
	}
	body := encodeNDJSON(events)

	start := make(chan struct{})
	stop := make(chan struct{})
	var ingested atomic.Uint64
	var ingestWG, exportWG sync.WaitGroup
	for i := 0; i < ingesters; i++ {
		ingestWG.Add(1)
		go func() {
			defer ingestWG.Done()
			<-start
			for {
				select {
				case <-stop:
					return
				default:
				}
				// No X-Lpp-Seq: each processed chunk takes the next seq.
				switch rr := post(t, h, "/v1/sessions/"+id+"/events", "", body); rr.Code {
				case http.StatusOK:
					ingested.Add(1)
				case http.StatusServiceUnavailable:
				default:
					t.Errorf("%s ingest: status %d: %s", id, rr.Code, rr.Body.String())
					return
				}
			}
		}()
	}
	codes := make([]int, exporters)
	var image []byte
	var exportedSeq uint64
	for i := 0; i < exporters; i++ {
		exportWG.Add(1)
		go func(i int) {
			defer exportWG.Done()
			<-start
			rr := do(t, h, "POST", "/v1/migrate/sessions/"+id+"/export")
			codes[i] = rr.Code
			if rr.Code == http.StatusOK {
				image = rr.Body.Bytes()
				seq, err := strconv.ParseUint(rr.Header().Get("X-Lpp-Seq"), 10, 64)
				if err != nil {
					t.Errorf("%s export X-Lpp-Seq: %v", id, err)
				}
				exportedSeq = seq
			}
		}(i)
	}
	close(start)
	exportWG.Wait()
	close(stop)
	ingestWG.Wait()

	won := 0
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			won++
		case http.StatusConflict, http.StatusServiceUnavailable:
		default:
			t.Errorf("%s export %d: unexpected status %d", id, i, c)
		}
	}
	if won != 1 {
		t.Fatalf("%s: %d exports won (codes %v), want exactly 1", id, won, codes)
	}
	if len(image) == 0 {
		t.Fatalf("%s: winning export carries no image", id)
	}
	// Every ingest answered 200 ran before the export, and none after.
	if want := 1 + ingested.Load(); exportedSeq != want {
		t.Fatalf("%s: exported seq %d, want %d (1 + %d ingested)", id, exportedSeq, want, ingested.Load())
	}
	if st, _ := s.SessionState(id); st != StateMigrating {
		t.Fatalf("%s: state after export = %q, want %q", id, st, StateMigrating)
	}

	if rr := do(t, h, "POST", "/v1/migrate/sessions/"+id+"/abort"); rr.Code != http.StatusNoContent {
		t.Fatalf("%s abort: status %d", id, rr.Code)
	}
	rr := postSeq(t, h, id, exportedSeq+1, events)
	if rr.Code != http.StatusOK || rr.Header().Get("X-Lpp-Replayed") == "true" {
		t.Fatalf("%s seq %d after abort: status %d, replayed %q: %s", id, exportedSeq+1, rr.Code, rr.Header().Get("X-Lpp-Replayed"), rr.Body.String())
	}
	if st, _ := s.SessionState(id); st != StateLocal {
		t.Fatalf("%s: state after revival = %q, want %q", id, st, StateLocal)
	}
}
