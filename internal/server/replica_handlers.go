package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"lpp/internal/durable"
	"lpp/internal/replica"
)

// maxReplicaBody caps a single replicated checkpoint or knowledge
// snapshot (generous: images are full detector+chain state, not
// chunks).
const maxReplicaBody = 256 << 20

// newReplicator builds the outbound replication pipeline targeting
// cfg.Peer, sourcing full-resync images from this server's durable
// store.
func (s *Server) newReplicator() (*replica.Replicator, error) {
	cfg := replica.Config{
		Peer:       s.cfg.Peer,
		QueueDepth: s.cfg.ReplicaQueue,
		Timeout:    s.cfg.ReplicaTimeout,
		Transport:  s.cfg.ReplicaTransport,
		Source:     s.replicaCheckpoints,
	}
	if store := s.cfg.Knowledge; store != nil {
		cfg.Knowledge = store.Snapshot
	}
	return replica.New(cfg)
}

// Replicator returns the outbound replication pipeline, or nil when
// the server has no peer (or is an unpromoted standby).
func (s *Server) Replicator() *replica.Replicator { return s.rep.Load() }

// replicaCheckpoints is the resync source: the latest on-disk
// checkpoint of every durable session. Sessions without a checkpoint
// yet (or with an unreadable one) are reported at seq 0 so the resync
// neither pushes nor orphan-deletes them.
func (s *Server) replicaCheckpoints() []replica.Checkpoint {
	ids, err := s.store.List()
	if err != nil {
		return nil
	}
	out := make([]replica.Checkpoint, 0, len(ids))
	for _, id := range ids {
		ck := replica.Checkpoint{Session: id}
		if seq, snap, resp, err := s.store.Session(id).ReadCheckpoint(); err == nil {
			ck.Seq, ck.Snapshot, ck.Response = seq, snap, resp
		}
		out = append(out, ck)
	}
	return out
}

// loadReplicaSeqs seeds the standby's seq table from disk so a
// restarted standby reports what it already holds.
func (s *Server) loadReplicaSeqs() error {
	ids, err := s.store.List()
	if err != nil {
		return err
	}
	s.replicaMu.Lock()
	defer s.replicaMu.Unlock()
	for _, id := range ids {
		seq, _, _, err := s.store.Session(id).ReadCheckpoint()
		if err != nil {
			continue // re-replicated by the primary's next resync
		}
		s.replicaSeqs[id] = seq
	}
	return nil
}

// Standby reports whether the server is an unpromoted replication
// target.
func (s *Server) Standby() bool { return s.standby.Load() }

// Ready reports whether the server is serving normal traffic (the
// /readyz signal).
func (s *Server) Ready() bool { return s.ready.Load() }

func (s *Server) setState(state string) {
	s.stateMu.Lock()
	s.state = state
	s.stateMu.Unlock()
}

// State returns the human-readable readiness state ("ready",
// "standby", "recovering", ...).
func (s *Server) State() string {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.state
}

// Promote turns a standby into a primary: recover every replicated
// session (WAL replay warms the detectors), start replicating outward
// if a peer is configured, and flip /readyz. Clients fail over by
// re-pointing at this node and rewinding to each session's
// X-Lpp-Want-Seq. Returns the number of sessions recovered.
func (s *Server) Promote() (int, error) {
	if !s.standby.CompareAndSwap(true, false) {
		return 0, errors.New("server: not a standby")
	}
	n, err := s.RecoverSessions()
	if err != nil {
		return n, err
	}
	// Replicate back toward the configured peer (the failed primary's
	// address): when that node returns as a standby, it catches up via
	// the resync path and the pair is redundant again.
	if s.cfg.Peer != "" && s.rep.Load() == nil {
		rep, err := s.newReplicator()
		if err != nil {
			return n, err
		}
		s.rep.Store(rep)
	}
	s.setState("ready")
	s.ready.Store(true)
	return n, nil
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.ready.Load() {
		io.WriteString(w, "ready\n")
		return
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	io.WriteString(w, s.State()+"\n")
}

// handleReplicaStatus answers the peer's resync query: role, state,
// and the checkpoint seq held per session.
func (s *Server) handleReplicaStatus(w http.ResponseWriter, _ *http.Request) {
	st := replica.Status{State: s.State(), Sessions: make(map[string]uint64)}
	if s.standby.Load() {
		st.Role = "standby"
		s.replicaMu.Lock()
		for id, seq := range s.replicaSeqs {
			st.Sessions[id] = seq
		}
		s.replicaMu.Unlock()
	} else {
		// A primary answers too (with its on-disk inventory) so a
		// misdirected replicator sees the role refusal before pushing
		// anything.
		st.Role = "primary"
		if s.store != nil {
			for _, ck := range s.replicaCheckpoints() {
				st.Sessions[ck.Session] = ck.Seq
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// handleReplicaPut ingests one replicated session checkpoint. The body
// is the LPPCKPT1 image; it is CRC-validated, checked against the seq
// already held (regressions are acknowledged but ignored — re-sends
// and resyncs overlap by design), and written through the durable
// layer exactly as a local checkpoint would be.
func (s *Server) handleReplicaPut(w http.ResponseWriter, r *http.Request) {
	if !s.standby.Load() {
		// The 409 is the failover signal a stale primary's replicator
		// sees after this node was promoted.
		writeErr(w, http.StatusConflict, "not a standby")
		return
	}
	id := r.PathValue("id")
	seq, snap, resp, ok := readImage(w, r)
	if !ok {
		return
	}
	s.replicaMu.Lock()
	defer s.replicaMu.Unlock()
	if have, ok := s.replicaSeqs[id]; ok && seq < have {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	if err := s.store.Session(id).Checkpoint(seq, snap, resp); err != nil {
		s.m.walErrors.Add(1)
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.replicaSeqs[id] = seq
	s.m.replicaApplied.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// readBody reads a replicated or migrated payload of at most
// maxReplicaBody bytes, answering 400 or 413 itself on failure.
func readBody(w http.ResponseWriter, r *http.Request, what string) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxReplicaBody+1))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	if len(body) > maxReplicaBody {
		writeErr(w, http.StatusRequestEntityTooLarge, what+" too large")
		return nil, false
	}
	return body, true
}

// readImage reads and decodes an LPPCKPT1 session image — the payload
// of both replica and migration PUTs — answering 400 or 413 itself on
// failure.
func readImage(w http.ResponseWriter, r *http.Request) (seq uint64, snap, resp []byte, ok bool) {
	body, ok := readBody(w, r, "checkpoint image")
	if !ok {
		return 0, nil, nil, false
	}
	seq, snap, resp, err := durable.DecodeCheckpoint(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return 0, nil, nil, false
	}
	return seq, snap, resp, true
}

// handleReplicaDelete drops a replicated session (it closed on the
// primary).
func (s *Server) handleReplicaDelete(w http.ResponseWriter, r *http.Request) {
	if !s.standby.Load() {
		writeErr(w, http.StatusConflict, "not a standby")
		return
	}
	id := r.PathValue("id")
	s.replicaMu.Lock()
	defer s.replicaMu.Unlock()
	if err := s.store.Session(id).Remove(); err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	delete(s.replicaSeqs, id)
	w.WriteHeader(http.StatusNoContent)
}

// handleReplicaKnowledge ingests a knowledge-store snapshot. A node
// without a store answers 404 (an asymmetric deployment, not an
// error); a corrupt snapshot is refused without touching the store.
func (s *Server) handleReplicaKnowledge(w http.ResponseWriter, r *http.Request) {
	if !s.standby.Load() {
		writeErr(w, http.StatusConflict, "not a standby")
		return
	}
	if s.cfg.Knowledge == nil {
		writeErr(w, http.StatusNotFound, "no knowledge store configured")
		return
	}
	body, ok := readBody(w, r, "knowledge snapshot")
	if !ok {
		return
	}
	if err := s.cfg.Knowledge.RestoreSnapshot(body); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := s.cfg.Knowledge.Persist(); err != nil {
		s.m.walErrors.Add(1)
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.m.replicaApplied.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// handleReplicaPromote is the HTTP face of Promote, for operators
// failing over without signal access to the process.
func (s *Server) handleReplicaPromote(w http.ResponseWriter, _ *http.Request) {
	n, err := s.Promote()
	if err != nil {
		writeErr(w, http.StatusConflict, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]int{"recovered": n})
}

// retryHintMs estimates how long a backpressured client should wait
// before retrying: the time to drain half the session queue at the
// recent p50 chunk latency, clamped to [5ms, 1s].
func (s *Server) retryHintMs() int64 {
	_, p50, _, _ := s.m.snapshot()
	hint := time.Duration(s.cfg.QueueDepth/2+1) * p50
	if hint < 5*time.Millisecond {
		hint = 5 * time.Millisecond
	}
	if hint > time.Second {
		hint = time.Second
	}
	return hint.Milliseconds()
}

// writeReplicaMetrics appends the replication and readiness section of
// /metrics.
func (s *Server) writeReplicaMetrics(w io.Writer) {
	boolGauge := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	fmt.Fprintf(w, "# TYPE lpp_standby gauge\n")
	fmt.Fprintf(w, "lpp_standby %d\n", boolGauge(s.standby.Load()))
	fmt.Fprintf(w, "# TYPE lpp_ready gauge\n")
	fmt.Fprintf(w, "lpp_ready %d\n", boolGauge(s.ready.Load()))
	fmt.Fprintf(w, "# TYPE lpp_replica_applied_total counter\n")
	fmt.Fprintf(w, "lpp_replica_applied_total %d\n", s.m.replicaApplied.Load())
	rep := s.rep.Load()
	if rep == nil {
		return
	}
	st := rep.Stats()
	fmt.Fprintf(w, "# TYPE lpp_replica_lag gauge\n")
	fmt.Fprintf(w, "lpp_replica_lag %d\n", st.Queue)
	fmt.Fprintf(w, "# TYPE lpp_replica_sent_total counter\n")
	fmt.Fprintf(w, "lpp_replica_sent_total %d\n", st.Sent)
	fmt.Fprintf(w, "# TYPE lpp_replica_dropped_total counter\n")
	fmt.Fprintf(w, "lpp_replica_dropped_total %d\n", st.Dropped)
	fmt.Fprintf(w, "# TYPE lpp_replica_coalesced_total counter\n")
	fmt.Fprintf(w, "lpp_replica_coalesced_total %d\n", st.Coalesced)
	fmt.Fprintf(w, "# TYPE lpp_replica_errors_total counter\n")
	fmt.Fprintf(w, "lpp_replica_errors_total %d\n", st.Errors)
	fmt.Fprintf(w, "# TYPE lpp_replica_resyncs_total counter\n")
	fmt.Fprintf(w, "lpp_replica_resyncs_total %d\n", st.Resyncs)
	fmt.Fprintf(w, "# TYPE lpp_replica_connected gauge\n")
	fmt.Fprintf(w, "lpp_replica_connected %d\n", boolGauge(st.Connected))
	fmt.Fprintf(w, "# TYPE lpp_replica_lag_seconds gauge\n")
	fmt.Fprintf(w, "lpp_replica_lag_seconds{quantile=\"0.5\"} %.6f\n", st.LagP50.Seconds())
	fmt.Fprintf(w, "lpp_replica_lag_seconds{quantile=\"0.99\"} %.6f\n", st.LagP99.Seconds())
}
