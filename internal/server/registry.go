package server

// The registry layer: who owns each session, and which goroutine may
// touch it. One mutex (Server.mu) guards the live-session table, the
// placement markers that outlive a live worker (migrating, remote) and
// the closed flag, so every lifecycle decision reads one consistent
// view. The transport layer asks the registry for a session and never
// touches workers directly.
//
// Lock order: replicaMu, then mu. mu is never held across a queue
// send, a durable.Store call, or replicaMu.

import (
	"fmt"
	"time"
)

// drainSessions atomically empties the table, refuses every later
// create, and returns the removed sessions.
func (s *Server) drainSessions() []*session {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	all := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		all = append(all, sess)
	}
	clear(s.sessions)
	return all
}

// liveSessions reports how many sessions have a live worker.
func (s *Server) liveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// SessionState is a session's placement state as the registry sees it.
type SessionState string

const (
	// StateLocal: a live worker on this node owns the session.
	StateLocal SessionState = "local"
	// StateSuspended: durable state on this node's disk, no worker;
	// the next request revives it transparently.
	StateSuspended SessionState = "suspended"
	// StateMigrating: the session's checkpoint image is in flight to
	// another node; ingest is refused with 503 until the migration
	// completes (owner becomes remote) or aborts (back to suspended).
	StateMigrating SessionState = "migrating"
	// StateRemote: the session migrated away; requests are refused
	// with 421 and the owner's URL so a router can re-route.
	StateRemote SessionState = "remote"
	// StateUnknown: this node holds nothing for the id.
	StateUnknown SessionState = "unknown"
)

// SessionState reports id's lifecycle state and, for remote sessions,
// the owning node's advertised base URL. Local and suspended sessions
// report this node's Advertise URL.
func (s *Server) SessionState(id string) (SessionState, string) {
	s.mu.Lock()
	owner, remote := s.remote[id]
	_, migrating := s.migrating[id]
	_, live := s.sessions[id]
	s.mu.Unlock()
	switch {
	case remote:
		return StateRemote, owner
	case migrating:
		return StateMigrating, s.cfg.Advertise
	case live:
		return StateLocal, s.cfg.Advertise
	}
	if s.store != nil && s.store.Exists(id) {
		return StateSuspended, s.cfg.Advertise
	}
	return StateUnknown, ""
}

// remoteError refuses a request for a session this node handed to
// another; the owner URL rides the 421 so routers can follow it.
type remoteError struct{ owner string }

func (e *remoteError) Error() string {
	return fmt.Sprintf("session migrated to %s", e.owner)
}

// isMigrating reports whether a migration claim on id is in flight.
func (s *Server) isMigrating(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.migrating[id]
	return ok
}

// markMigrating claims id for a migration. It fails if a migration is
// already in flight or the session already moved away.
func (s *Server) markMigrating(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.migrating[id]; ok {
		return errMigrating
	}
	if owner, ok := s.remote[id]; ok {
		return &remoteError{owner: owner}
	}
	s.migrating[id] = struct{}{}
	return nil
}

// unmarkMigrating aborts a migration claim: the session falls back to
// suspended and the next request revives it locally.
func (s *Server) unmarkMigrating(id string) {
	s.mu.Lock()
	delete(s.migrating, id)
	s.mu.Unlock()
}

// completeMigration finishes a migration: the id stops being ours and
// points at target ("" forgets the session entirely).
func (s *Server) completeMigration(id, target string) {
	s.mu.Lock()
	delete(s.migrating, id)
	if target != "" {
		s.remote[id] = target
	} else {
		delete(s.remote, id)
	}
	s.mu.Unlock()
}

func (s *Server) getSession(id string, create bool) (*session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Close sets closed and drains the table in one critical section,
	// so a create either lands before the drain or is refused here.
	if s.closed {
		return nil, errServerClosed
	}
	if sess, ok := s.sessions[id]; ok {
		return sess, nil
	}
	if !create {
		return nil, errNoSession
	}
	// Placement guard: a session mid-migration must not be revived
	// (its image is in flight), and one that moved away belongs to its
	// new owner. Checked only on the create path — a live session
	// always wins, and the migration path unlinks it first.
	if _, ok := s.migrating[id]; ok {
		return nil, errMigrating
	}
	if owner, ok := s.remote[id]; ok {
		return nil, &remoteError{owner: owner}
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		return nil, errTooManySessions
	}
	sess := &session{
		id:    id,
		queue: make(chan chunk, s.cfg.QueueDepth),
		kill:  make(chan struct{}),
		done:  make(chan struct{}),
		ready: make(chan struct{}),
	}
	sess.lastActive.Store(time.Now().UnixNano())
	s.sessions[id] = sess
	s.m.sessionsTotal.Add(1)
	go s.run(sess)
	return sess, nil
}

// unlinkSession removes sess from the table if it is still the
// registered session for its id, claiming teardown ownership (or
// clearing out a dead worker). It returns false if another goroutine
// got there first.
func (s *Server) unlinkSession(sess *session) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sessions[sess.id] != sess {
		return false
	}
	delete(s.sessions, sess.id)
	return true
}

// detach takes teardown ownership of session id: it finds the session
// (reviving it from durable state when it is not in memory), runs claim
// if one is given, and unlinks it from the table. It fails with
// errNoSession when the id exists nowhere, and with errContended when
// another goroutine unlinked the session first; claim is not undone.
func (s *Server) detach(id string, claim func() error) (*session, error) {
	sess, err := s.getSession(id, false)
	if err != nil {
		if !s.hasState(id) {
			return nil, errNoSession
		}
		if sess, err = s.getSession(id, true); err != nil {
			return nil, err
		}
	}
	if claim != nil {
		<-sess.ready
		if err := claim(); err != nil {
			return nil, err
		}
	}
	if !s.unlinkSession(sess) {
		return nil, errContended
	}
	return sess, nil
}

// dispatch enqueues c on session id's worker and waits for its reply.
// A full queue is refused rather than waited on. A session whose
// worker died (crash simulation, suspend race) is dropped and — on the
// enqueue path — re-created once, which recovers it from durable
// state.
func (s *Server) dispatch(id string, c chunk) (result, error) {
	c.reply = make(chan result, 1)
	for attempt := 0; ; attempt++ {
		sess, err := s.getSession(id, true)
		if err != nil {
			return result{}, err
		}
		sess.lastActive.Store(time.Now().UnixNano())
		select {
		case sess.queue <- c:
		case <-sess.done:
			s.unlinkSession(sess)
			if attempt == 0 {
				continue
			}
			return result{}, errSessionDown
		default:
			return result{}, errQueueFull
		}
		res, err := sess.await(c)
		if err != nil {
			s.unlinkSession(sess)
		}
		return res, err
	}
}

// roundTrip hands c to sess's worker, waiting for queue room, and
// returns the reply. It fails with errNotEnqueued when the worker
// exited before taking c, and with errSessionDown when it took c but
// exited without replying.
func (sess *session) roundTrip(c chunk) (result, error) {
	c.reply = make(chan result, 1)
	select {
	case sess.queue <- c:
	case <-sess.done:
		return result{}, errNotEnqueued
	}
	return sess.await(c)
}

// await waits for the reply to c, which sess's worker has taken.
func (sess *session) await(c chunk) (result, error) {
	select {
	case res := <-c.reply:
		return res, nil
	case <-sess.done:
		// The worker may have replied and exited in the same breath;
		// the reply, if any, is already buffered.
		select {
		case res := <-c.reply:
			return res, nil
		default:
			return result{}, errSessionDown
		}
	}
}

// reap periodically suspends idle sessions: checkpoint to disk, evict
// from memory. The next request for the id recovers transparently.
func (s *Server) reap() {
	defer s.reapWG.Done()
	// A quarter of the idle timeout suspends a session within 1.25x
	// IdleTimeout of its last request.
	t := time.NewTicker(max(s.cfg.IdleTimeout/4, 10*time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			cutoff := time.Now().Add(-s.cfg.IdleTimeout).UnixNano()
			var idle []*session
			s.mu.Lock()
			for _, sess := range s.sessions {
				if sess.lastActive.Load() < cutoff {
					idle = append(idle, sess)
				}
			}
			s.mu.Unlock()
			for _, sess := range idle {
				if s.suspendSession(sess) {
					s.m.reaped.Add(1)
				}
			}
		}
	}
}

// suspendSession evicts sess after checkpointing it. Returns false if
// another goroutine already owns the teardown.
func (s *Server) suspendSession(sess *session) bool {
	if !s.unlinkSession(sess) {
		return false
	}
	sess.roundTrip(chunk{op: opSuspend})
	return true
}

// sessionEntry is one row of the GET /v1/sessions listing.
type sessionEntry struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Seq is the last accepted sequence number for live sessions; for
	// suspended sessions it is the last checkpointed one (the WAL
	// suffix may extend past it).
	Seq   uint64 `json:"seq"`
	Owner string `json:"owner,omitempty"`
}

// listSessions inventories every session this node knows about: live
// workers, suspended durable state, migrations in flight, and sessions
// that moved away.
func (s *Server) listSessions() []sessionEntry {
	seen := make(map[string]bool)
	var out []sessionEntry
	s.mu.Lock()
	for id, sess := range s.sessions {
		seen[id] = true
		out = append(out, sessionEntry{
			ID:    id,
			State: string(StateLocal),
			Seq:   sess.seq.Load(),
			Owner: s.cfg.Advertise,
		})
	}
	for id := range s.migrating {
		if !seen[id] {
			seen[id] = true
			out = append(out, sessionEntry{ID: id, State: string(StateMigrating), Owner: s.cfg.Advertise})
		}
	}
	for id, owner := range s.remote {
		if !seen[id] {
			seen[id] = true
			out = append(out, sessionEntry{ID: id, State: string(StateRemote), Owner: owner})
		}
	}
	s.mu.Unlock()
	if s.store != nil {
		ids, err := s.store.List()
		if err == nil {
			for _, id := range ids {
				if seen[id] {
					continue
				}
				e := sessionEntry{ID: id, State: string(StateSuspended), Owner: s.cfg.Advertise}
				if seq, _, _, err := s.store.Session(id).ReadCheckpoint(); err == nil {
					e.Seq = seq
				}
				out = append(out, e)
			}
		}
	}
	return out
}
