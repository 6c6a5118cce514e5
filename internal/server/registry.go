package server

// The registry layer: who owns each session, and which goroutine may
// touch it. The session table is striped into shards; placement state
// that outlives a live worker (migrating, remote) lives in the
// placement maps guarded by placeMu. The transport layer asks the
// registry for a session and never touches workers directly.

import (
	"fmt"
	"sync"
	"time"
)

// shard is one lock stripe of the session table. Sessions are assigned
// by a hash of their ID, so two sessions on different shards never
// contend on a table lock — only the global counters (atomics) are
// shared. Server-wide invariants that used to live under one mutex are
// split accordingly: membership of one id is a shard-local question,
// while the session cap and the closed flag are global atomics checked
// inside the shard critical section.
type shard struct {
	mu       sync.Mutex
	sessions map[string]*session
}

// FNV-1a, inlined: the IDs are short and the hash runs on every
// request, so this avoids the hash/fnv allocation-and-interface dance.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

func fnv1a(s string) uint32 {
	h := uint32(fnvOffset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= fnvPrime32
	}
	return h
}

// shardFor returns the stripe owning id. The shard count is a power of
// two, so the mask keeps the mapping branch-free.
func (s *Server) shardFor(id string) *shard {
	return &s.shards[fnv1a(id)&s.shardMask]
}

// shardIndex is shardFor as an index, for the per-shard metrics rings.
func (s *Server) shardIndex(id string) int {
	return int(fnv1a(id) & s.shardMask)
}

// drainSessions atomically empties every shard and returns all removed
// sessions. Callers must have made new creations impossible first (by
// storing closed), so the returned snapshot is complete.
func (s *Server) drainSessions() []*session {
	var all []*session
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, sess := range sh.sessions {
			all = append(all, sess)
		}
		sh.sessions = make(map[string]*session)
		sh.mu.Unlock()
	}
	return all
}

// nextPow2 rounds n up to a power of two (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
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
	s.placeMu.Lock()
	if owner, ok := s.remote[id]; ok {
		s.placeMu.Unlock()
		return StateRemote, owner
	}
	if _, ok := s.migrating[id]; ok {
		s.placeMu.Unlock()
		return StateMigrating, s.cfg.Advertise
	}
	s.placeMu.Unlock()
	sh := s.shardFor(id)
	sh.mu.Lock()
	_, live := sh.sessions[id]
	sh.mu.Unlock()
	if live {
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

// placement returns id's migrating/remote markers in one lock hold.
func (s *Server) placement(id string) (migrating bool, owner string, remote bool) {
	s.placeMu.Lock()
	defer s.placeMu.Unlock()
	_, migrating = s.migrating[id]
	owner, remote = s.remote[id]
	return
}

// markMigrating claims id for a migration. It fails if a migration is
// already in flight or the session already moved away.
func (s *Server) markMigrating(id string) error {
	s.placeMu.Lock()
	defer s.placeMu.Unlock()
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
	s.placeMu.Lock()
	delete(s.migrating, id)
	s.placeMu.Unlock()
}

// completeMigration finishes a migration: the id stops being ours and
// points at target ("" forgets the session entirely).
func (s *Server) completeMigration(id, target string) {
	s.placeMu.Lock()
	delete(s.migrating, id)
	if target != "" {
		s.remote[id] = target
	} else {
		delete(s.remote, id)
	}
	s.placeMu.Unlock()
}

func (s *Server) getSession(id string, create bool) (*session, error) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// The closed check must happen inside the shard critical section:
	// Close stores the flag before draining the shards, so a create
	// serialized after the store is refused here, and one serialized
	// before it is already in the map when the drain takes this lock.
	if s.closed.Load() {
		return nil, errServerClosed
	}
	if sess, ok := sh.sessions[id]; ok {
		return sess, nil
	}
	if !create {
		return nil, errNoSession
	}
	// Placement guard: a session mid-migration must not be revived
	// (its image is in flight), and one that moved away belongs to its
	// new owner. Checked only on the create path — a live session
	// always wins, and the migration path unlinks it first.
	if mig, owner, rem := s.placement(id); mig {
		return nil, errMigrating
	} else if rem {
		return nil, &remoteError{owner: owner}
	}
	// The session cap is global while the table lock is per-shard, so
	// the cap is claimed by CAS on the active-session counter (which
	// tracks total table population exactly).
	for {
		n := s.m.sessionsActive.Load()
		if n >= int64(s.cfg.MaxSessions) {
			return nil, errTooManySessions
		}
		if s.m.sessionsActive.CompareAndSwap(n, n+1) {
			break
		}
	}
	sess := &session{
		id:    id,
		queue: make(chan chunk, s.cfg.QueueDepth),
		kill:  make(chan struct{}),
		done:  make(chan struct{}),
		ready: make(chan struct{}),
	}
	sess.lastActive.Store(time.Now().UnixNano())
	sh.sessions[id] = sess
	s.m.sessionsTotal.Add(1)
	go s.run(sess)
	return sess, nil
}

// unlinkSession removes sess from the table if it is still the
// registered session for its id, claiming teardown ownership (or
// clearing out a dead worker). It returns false if another goroutine
// got there first.
func (s *Server) unlinkSession(sess *session) bool {
	sh := s.shardFor(sess.id)
	sh.mu.Lock()
	if sh.sessions[sess.id] != sess {
		sh.mu.Unlock()
		return false
	}
	delete(sh.sessions, sess.id)
	sh.mu.Unlock()
	s.m.sessionsActive.Add(-1)
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
	t := time.NewTicker(s.cfg.ReapInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			cutoff := time.Now().Add(-s.cfg.IdleTimeout).UnixNano()
			var idle []*session
			for i := range s.shards {
				sh := &s.shards[i]
				sh.mu.Lock()
				for _, sess := range sh.sessions {
					if sess.lastActive.Load() < cutoff {
						idle = append(idle, sess)
					}
				}
				sh.mu.Unlock()
			}
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
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for id, sess := range sh.sessions {
			seen[id] = true
			out = append(out, sessionEntry{
				ID:    id,
				State: string(StateLocal),
				Seq:   sess.seq.Load(),
				Owner: s.cfg.Advertise,
			})
		}
		sh.mu.Unlock()
	}
	s.placeMu.Lock()
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
	s.placeMu.Unlock()
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
