package server

// Registry-layer unit tests: lifecycle states, placement guards, and
// the session listing inventory.

import (
	"errors"
	"net/http"
	"testing"
)

func TestSessionStateLifecycle(t *testing.T) {
	s := mustServer(t, Config{DataDir: t.TempDir(), Advertise: "http://node-a"})
	defer s.Close()

	if st, _ := s.SessionState("ghost"); st != StateUnknown {
		t.Fatalf("unknown session state = %q, want %q", st, StateUnknown)
	}

	// Create → local.
	rr := post(t, s.Handler(), "/v1/sessions/a/events", "application/x-ndjson",
		encodeNDJSON(syntheticEvents(1, 2, 4)))
	if rr.Code != http.StatusOK {
		t.Fatalf("ingest: %d: %s", rr.Code, rr.Body.String())
	}
	if st, owner := s.SessionState("a"); st != StateLocal || owner != "http://node-a" {
		t.Fatalf("live session = %q owner %q, want local/http://node-a", st, owner)
	}

	// Suspend → suspended (durable state, no worker).
	sess, err := s.getSession("a", false)
	if err != nil {
		t.Fatalf("getSession: %v", err)
	}
	if !s.suspendSession(sess) {
		t.Fatal("suspendSession returned false")
	}
	if st, _ := s.SessionState("a"); st != StateSuspended {
		t.Fatalf("suspended session state = %q, want %q", st, StateSuspended)
	}

	// Claim → migrating; revival is refused while the image is in
	// flight.
	if err := s.markMigrating("a"); err != nil {
		t.Fatalf("markMigrating: %v", err)
	}
	if st, _ := s.SessionState("a"); st != StateMigrating {
		t.Fatalf("claimed session state = %q, want %q", st, StateMigrating)
	}
	if err := s.markMigrating("a"); !errors.Is(err, errMigrating) {
		t.Fatalf("second claim error = %v, want errMigrating", err)
	}
	if _, err := s.getSession("a", true); !errors.Is(err, errMigrating) {
		t.Fatalf("revive during migration error = %v, want errMigrating", err)
	}

	// Complete → remote; requests learn the new owner.
	s.completeMigration("a", "http://node-b")
	if st, owner := s.SessionState("a"); st != StateRemote || owner != "http://node-b" {
		t.Fatalf("migrated session = %q owner %q, want remote/http://node-b", st, owner)
	}
	var remote *remoteError
	if _, err := s.getSession("a", true); !errors.As(err, &remote) || remote.owner != "http://node-b" {
		t.Fatalf("revive of remote session error = %v, want remoteError(http://node-b)", err)
	}

	// An import clears the marker: ours again.
	s.completeMigration("a", "")
	if st, _ := s.SessionState("a"); st == StateRemote || st == StateMigrating {
		t.Fatalf("adopted session still %q", st)
	}
}

func TestUnmarkMigratingRestoresLocalOwnership(t *testing.T) {
	s := mustServer(t, Config{DataDir: t.TempDir()})
	defer s.Close()
	rr := post(t, s.Handler(), "/v1/sessions/x/events", "application/x-ndjson",
		encodeNDJSON(syntheticEvents(2, 1, 2)))
	if rr.Code != http.StatusOK {
		t.Fatalf("ingest: %d", rr.Code)
	}
	sess, _ := s.getSession("x", false)
	s.suspendSession(sess)
	if err := s.markMigrating("x"); err != nil {
		t.Fatalf("markMigrating: %v", err)
	}
	s.unmarkMigrating("x")
	// Aborted migration: the session revives locally from disk.
	if _, err := s.getSession("x", true); err != nil {
		t.Fatalf("revive after abort: %v", err)
	}
	if st, _ := s.SessionState("x"); st != StateLocal {
		t.Fatalf("state after abort+revive = %q, want local", st)
	}
}

func TestListSessionsCoversEveryLifecycleState(t *testing.T) {
	s := mustServer(t, Config{DataDir: t.TempDir(), Advertise: "http://node-a"})
	defer s.Close()
	events := encodeNDJSON(syntheticEvents(3, 1, 2))
	for _, id := range []string{"live", "idle", "moving", "gone"} {
		rr := post(t, s.Handler(), "/v1/sessions/"+id+"/events", "application/x-ndjson", events)
		if rr.Code != http.StatusOK {
			t.Fatalf("ingest %s: %d", id, rr.Code)
		}
	}
	for _, id := range []string{"idle", "moving", "gone"} {
		sess, _ := s.getSession(id, false)
		s.suspendSession(sess)
	}
	if err := s.markMigrating("moving"); err != nil {
		t.Fatalf("markMigrating: %v", err)
	}
	if err := s.markMigrating("gone"); err != nil {
		t.Fatalf("markMigrating: %v", err)
	}
	s.completeMigration("gone", "http://node-b")

	states := make(map[string]sessionEntry)
	for _, e := range s.listSessions() {
		states[e.ID] = e
	}
	want := map[string]SessionState{
		"live":   StateLocal,
		"idle":   StateSuspended,
		"moving": StateMigrating,
		"gone":   StateRemote,
	}
	for id, st := range want {
		e, ok := states[id]
		if !ok {
			t.Fatalf("session %q missing from listing: %+v", id, states)
		}
		if e.State != string(st) {
			t.Errorf("session %q state = %q, want %q", id, e.State, st)
		}
	}
	if states["live"].Owner != "http://node-a" {
		t.Errorf("live owner = %q, want this node", states["live"].Owner)
	}
	if states["gone"].Owner != "http://node-b" {
		t.Errorf("gone owner = %q, want the target node", states["gone"].Owner)
	}
	if states["live"].Seq == 0 {
		t.Errorf("live session reports seq 0")
	}
	if states["idle"].Seq == 0 {
		t.Errorf("suspended session reports seq 0 (checkpoint not read)")
	}
}
