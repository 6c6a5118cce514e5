package server

// Live session migration. The protocol reuses the durable layer's
// LPPCKPT1 checkpoint image as the wire format:
//
//	POST /v1/migrate/sessions/{id}/export   (source)
//	    suspend the worker, checkpoint, return the image
//	PUT  /v1/migrate/sessions/{id}          (target)
//	    write the image through the durable layer, resume the session
//	POST /v1/migrate/sessions/{id}/complete?target=URL  (source)
//	    drop local durable state, mark the session remote
//	POST /v1/migrate/sessions/{id}/abort    (source)
//	    forget the claim; the session revives locally on next use
//
// Between export and complete the source answers 503 for the session
// (state "migrating") so the router holds and retries traffic; after
// complete it answers 421 with X-Lpp-Owner. An orchestrator that dies
// mid-migration leaves the source holding a fresh local checkpoint, so
// abort (or a restart, which forgets the in-memory claim) fully
// recovers.

import (
	"errors"
	"net/http"
	"strconv"

	"lpp/internal/replica"
)

// handleMigrateExport suspends a session into an LPPCKPT1 image and
// returns it, leaving the session in the migrating state.
func (s *Server) handleMigrateExport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Only sessions that exist somewhere are exportable: a live worker
	// or suspended durable state. The claim comes after the revival so
	// it is unambiguous: of two concurrent exports, exactly one wins
	// markMigrating and the loser backs off without touching the
	// winner's claim.
	sess, err := s.detach(id, func() error { return s.markMigrating(id) })
	if err != nil {
		switch {
		case errors.Is(err, errContended):
			// The reaper (or a concurrent teardown) got the session
			// between the revival and the claim; the caller retries.
			s.unmarkMigrating(id)
			writeErr(w, http.StatusServiceUnavailable, err.Error())
		case errors.Is(err, errMigrating):
			writeErr(w, http.StatusConflict, err.Error())
		default:
			writeSessionErr(w, err)
		}
		return
	}
	res, err := sess.roundTrip(chunk{op: opExport})
	if err != nil {
		s.unmarkMigrating(id)
		writeErr(w, http.StatusServiceUnavailable, errSessionDown.Error())
		return
	}
	if res.status != http.StatusOK {
		// The worker refused (quarantined, checkpoint failure) and has
		// exited; durable state is untouched, so fall back to suspended.
		s.unmarkMigrating(id)
		writeResult(w, res)
		return
	}
	s.m.migrationsOut.Add(1)
	w.Header().Set("Content-Type", "application/x-lpp-checkpoint")
	w.Header().Set("X-Lpp-Seq", strconv.FormatUint(res.seq, 10))
	w.Write(res.body)
}

// handleMigrateImport ingests an exported session image and resumes
// the session on this node. The image lands in the owned store, where a
// failover's adoption also puts the image it takes, and the session is
// revived eagerly.
func (s *Server) handleMigrateImport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.store == nil {
		writeErr(w, http.StatusServiceUnavailable, "migration target requires durability (DataDir)")
		return
	}
	if _, err := s.getSession(id, false); err == nil {
		writeErr(w, http.StatusConflict, "session is live on this node")
		return
	}
	seq, snap, resp, ok := readImage(w, r)
	if !ok {
		return
	}
	// The image is the session's newest state whatever this node held:
	// it replaces the owned state, and the revival below drops any
	// replica copies of the id.
	if err := s.store.Session(id).Checkpoint(seq, snap, resp); err != nil {
		s.m.walErrors.Add(1)
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	// Ours now, whatever this node used to think about the id: drop
	// its placement markers.
	s.completeMigration(id, "")
	// Resume eagerly: the next chunk should hit a warm detector, not
	// pay the restore on the request path.
	sess, err := s.getSession(id, true)
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	<-sess.ready
	// Replicate the adopted session to its successor from here so the
	// migration doesn't shrink the redundancy story.
	if rep := s.replicatorFor(id); rep != nil {
		rep.EnqueueCheckpoint(replica.Checkpoint{Session: id, Seq: seq, Snapshot: snap, Response: resp})
	}
	s.m.migrationsIn.Add(1)
	w.Header().Set("X-Lpp-Seq", strconv.FormatUint(seq, 10))
	w.WriteHeader(http.StatusNoContent)
}

// handleMigrateComplete finishes a migration on the source: drop the
// local durable copy and point the session at its new owner (?target=).
func (s *Server) handleMigrateComplete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.isMigrating(id) {
		writeErr(w, http.StatusConflict, "no migration in progress for session")
		return
	}
	if s.store != nil {
		if err := s.store.Session(id).Remove(); err != nil {
			s.m.walErrors.Add(1)
			writeErr(w, http.StatusInternalServerError, err.Error())
			return
		}
		// Only the successor's replica image goes; a successor that is
		// the migration target keeps the session it now owns.
		if rep := s.replicatorFor(id); rep != nil {
			rep.EnqueueRemove(id)
		}
	}
	s.completeMigration(id, r.URL.Query().Get("target"))
	w.WriteHeader(http.StatusNoContent)
}

// handleMigrateAbort abandons a migration claim: the local durable
// state (checkpointed at export) remains authoritative and the session
// revives here on its next request.
func (s *Server) handleMigrateAbort(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.isMigrating(id) {
		writeErr(w, http.StatusConflict, "no migration in progress for session")
		return
	}
	s.unmarkMigrating(id)
	w.WriteHeader(http.StatusNoContent)
}
