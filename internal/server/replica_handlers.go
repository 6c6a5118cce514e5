package server

// Checkpoint shipping: replication to ring successors, the receiving
// side's per-origin image store, and adoption. Routes, under
// /v1/replica/{origin} (the sender's advertised URL as one escaped
// segment): GET /status, PUT and DELETE /sessions/{id}, PUT /knowledge.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"lpp/internal/durable"
	"lpp/internal/replica"
)

// maxReplicaBody caps a single replicated checkpoint or knowledge
// snapshot (generous: images are full detector+chain state, not
// chunks).
const maxReplicaBody = 256 << 20

// replicaDir holds the images other nodes replicated here, apart from
// the owned store. url.PathEscape always escapes '%', so no owned
// session's directory can take this name, and the owned store's List
// skips it (it is not a valid escape).
const replicaDir = "%replica"

// replicaKey names origin's image of id in the replica store. A URL
// holds no newline, so the key splits back unambiguously.
func replicaKey(origin, id string) string { return origin + "\n" + id }

// replicaKeys lists the replica store's images as (origin, id) pairs,
// keeping those for which keep returns true. Callers hold replicaMu.
func (s *Server) replicaKeys(keep func(origin, id string) bool) [][2]string {
	// An unreadable store holds nothing to adopt or report; the next
	// resync from each origin re-sends what it should hold.
	keys, _ := s.replicas.List()
	var out [][2]string
	for _, k := range keys {
		if origin, id, ok := strings.Cut(k, "\n"); ok && keep(origin, id) {
			out = append(out, [2]string{origin, id})
		}
	}
	return out
}

// heldReplicas returns the keys of every origin's image of id.
func (s *Server) heldReplicas(id string) [][2]string {
	return s.replicaKeys(func(_, held string) bool { return held == id })
}

// hasState reports whether this node holds durable state for id: owned,
// or a replica image it would adopt on revival.
func (s *Server) hasState(id string) bool {
	if s.store == nil {
		return false
	}
	s.replicaMu.Lock()
	defer s.replicaMu.Unlock()
	return s.store.Exists(id) || len(s.heldReplicas(id)) > 0
}

// adoptReplica is failover. Before a session's worker restores, it takes
// the newest replica image held for id when that image is newer than
// the owned state. Replica copies of id are dropped either way: once
// the session is served here they are stale.
func (s *Server) adoptReplica(id string) {
	s.replicaMu.Lock()
	defer s.replicaMu.Unlock()
	held := s.heldReplicas(id)
	if len(held) == 0 {
		return
	}
	var best replica.Checkpoint
	for _, k := range held {
		seq, snap, resp, err := s.replicas.Session(replicaKey(k[0], k[1])).ReadCheckpoint()
		if err == nil && seq > best.Seq {
			best = replica.Checkpoint{Seq: seq, Snapshot: snap, Response: resp}
		}
	}
	// Unreadable owned state counts as none: the image replaces it.
	owned, _ := s.store.Session(id).Load()
	if best.Seq > owned.LastSeq() {
		if err := s.store.Session(id).Checkpoint(best.Seq, best.Snapshot, best.Response); err != nil {
			s.m.walErrors.Add(1)
			return
		}
		s.m.replicaAdopted.Add(1)
	}
	for _, k := range held {
		if err := s.replicas.Session(replicaKey(k[0], k[1])).Remove(); err != nil {
			s.m.walErrors.Add(1)
		}
	}
}

// replicatorFor returns the Replicator shipping id's checkpoints to its
// ring successor, starting it on first use. It is nil when replication
// is off, id has no other successor, or the server is shutting down.
func (s *Server) replicatorFor(id string) *replica.Replicator {
	if s.cfg.Successor == nil {
		return nil
	}
	succ := s.cfg.Successor(id)
	if succ == "" || succ == s.cfg.Advertise {
		return nil
	}
	s.repMu.Lock()
	defer s.repMu.Unlock()
	if rep, ok := s.reps[succ]; ok || s.reps == nil {
		return rep
	}
	cfg := replica.Config{
		Peer:       succ + "/v1/replica/" + url.PathEscape(s.cfg.Advertise),
		QueueDepth: s.cfg.ReplicaQueue,
		Source:     func() []replica.Checkpoint { return s.replicaCheckpoints(succ) },
	}
	if store := s.cfg.Knowledge; store != nil {
		cfg.Knowledge = store.Snapshot
	}
	rep, err := replica.New(cfg)
	if err != nil {
		return nil // unreachable: Peer and Source are set
	}
	s.reps[succ] = rep
	return rep
}

// replicators returns the running Replicators keyed by successor URL.
func (s *Server) replicators() map[string]*replica.Replicator {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	out := make(map[string]*replica.Replicator, len(s.reps))
	for succ, rep := range s.reps {
		out[succ] = rep
	}
	return out
}

// stopReplication takes every Replicator out of service. With flush,
// they get 5s between them to drain first, each cut short once a send
// to its successor fails: a dead successor is not waited on.
func (s *Server) stopReplication(flush bool) {
	s.repMu.Lock()
	reps := s.reps
	s.reps = nil
	s.repMu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for _, rep := range reps {
		for flush && !rep.Flush(10*time.Millisecond) && time.Now().Before(deadline) {
			if st := rep.Stats(); st.Errors > 0 && !st.Connected {
				break
			}
		}
		rep.Stop()
	}
}

// FlushReplication waits until every Replicator has delivered its queue
// (or the timeout elapses) and reports whether all of them drained.
func (s *Server) FlushReplication(timeout time.Duration) bool {
	ok := true
	for _, rep := range s.replicators() {
		ok = rep.Flush(timeout) && ok
	}
	return ok
}

// replicaCheckpoints is succ's resync source: the latest on-disk
// checkpoint of every owned session whose successor is succ. Sessions
// without a checkpoint yet (or with an unreadable one) are reported at
// seq 0 so the resync neither pushes nor orphan-deletes them.
func (s *Server) replicaCheckpoints(succ string) []replica.Checkpoint {
	// An unreadable store yields an empty resync source, which the
	// next resync retries.
	ids, _ := s.store.List()
	var out []replica.Checkpoint
	for _, id := range ids {
		if s.cfg.Successor(id) != succ {
			continue
		}
		ck := replica.Checkpoint{Session: id}
		if seq, snap, resp, err := s.store.Session(id).ReadCheckpoint(); err == nil {
			ck.Seq, ck.Snapshot, ck.Response = seq, snap, resp
		}
		out = append(out, ck)
	}
	return out
}

// handleReplicaStatus answers an origin's resync query: the checkpoint
// seq held per session for that origin only.
func (s *Server) handleReplicaStatus(w http.ResponseWriter, r *http.Request) {
	origin := r.PathValue("origin")
	st := replica.Status{Sessions: make(map[string]uint64)}
	s.replicaMu.Lock()
	for _, k := range s.replicaKeys(func(o, _ string) bool { return o == origin }) {
		if seq, _, _, err := s.replicas.Session(replicaKey(k[0], k[1])).ReadCheckpoint(); err == nil {
			st.Sessions[k[1]] = seq
		}
	}
	s.replicaMu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// handleReplicaPut stores one replicated checkpoint under its origin.
// The body is the LPPCKPT1 image; it is CRC-validated, refused with 409
// when the session is served here (live, suspended or migrating out),
// ignored when older than the image held (re-sends and resyncs overlap
// by design), and otherwise written through the durable layer exactly
// as a local checkpoint would be.
func (s *Server) handleReplicaPut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	seq, snap, resp, ok := readImage(w, r)
	if !ok {
		return
	}
	s.replicaMu.Lock()
	defer s.replicaMu.Unlock()
	if st, _ := s.SessionState(id); st == StateLocal || st == StateSuspended || st == StateMigrating {
		s.m.replicaRefused.Add(1)
		writeErr(w, http.StatusConflict, "session is owned here")
		return
	}
	log := s.replicas.Session(replicaKey(r.PathValue("origin"), id))
	if have, _, _, err := log.ReadCheckpoint(); err == nil && seq < have {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	if err := log.Checkpoint(seq, snap, resp); err != nil {
		s.m.walErrors.Add(1)
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.m.replicaApplied.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// handleReplicaDelete drops the origin's image of a session (it closed
// or migrated away on the origin). Owned sessions and other origins'
// images are untouched.
func (s *Server) handleReplicaDelete(w http.ResponseWriter, r *http.Request) {
	s.replicaMu.Lock()
	defer s.replicaMu.Unlock()
	if err := s.replicas.Session(replicaKey(r.PathValue("origin"), r.PathValue("id"))).Remove(); err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleReplicaKnowledge merges an origin's knowledge-store snapshot
// into this node's store entry by entry, so this node's own knowledge
// survives. A node without a store answers 404 (an asymmetric
// deployment, not an error); a corrupt snapshot is refused without
// touching the store.
func (s *Server) handleReplicaKnowledge(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Knowledge == nil {
		writeErr(w, http.StatusNotFound, "no knowledge store configured")
		return
	}
	body, ok := readBody(w, r, "knowledge snapshot")
	if !ok {
		return
	}
	if err := s.cfg.Knowledge.MergeSnapshot(body); err != nil {
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

// writeReplicaMetrics appends the replication and readiness section of
// /metrics. Receiver counters are node-wide; sender series carry one
// {peer="URL"} label per successor.
func (s *Server) writeReplicaMetrics(w io.Writer) {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	fmt.Fprintf(w, "# TYPE lpp_ready gauge\nlpp_ready %d\n", b2i(s.State() == "ready"))
	fmt.Fprintf(w, "# TYPE lpp_replica_applied_total counter\nlpp_replica_applied_total %d\n", s.m.replicaApplied.Load())
	fmt.Fprintf(w, "# TYPE lpp_replica_adopted_total counter\nlpp_replica_adopted_total %d\n", s.m.replicaAdopted.Load())
	fmt.Fprintf(w, "# TYPE lpp_replica_refused_total counter\nlpp_replica_refused_total %d\n", s.m.replicaRefused.Load())
	reps := s.replicators()
	if len(reps) == 0 {
		return
	}
	peers := make([]string, 0, len(reps))
	stats := make(map[string]replica.Stats, len(reps))
	for succ, rep := range reps {
		peers = append(peers, succ)
		stats[succ] = rep.Stats()
	}
	sort.Strings(peers)
	for _, c := range []struct {
		name, typ string
		v         func(replica.Stats) int64
	}{
		{"lpp_replica_lag", "gauge", func(st replica.Stats) int64 { return int64(st.Queue) }},
		{"lpp_replica_sent_total", "counter", func(st replica.Stats) int64 { return st.Sent }},
		{"lpp_replica_dropped_total", "counter", func(st replica.Stats) int64 { return st.Dropped }},
		{"lpp_replica_coalesced_total", "counter", func(st replica.Stats) int64 { return st.Coalesced }},
		{"lpp_replica_errors_total", "counter", func(st replica.Stats) int64 { return st.Errors }},
		{"lpp_replica_resyncs_total", "counter", func(st replica.Stats) int64 { return st.Resyncs }},
		{"lpp_replica_connected", "gauge", func(st replica.Stats) int64 { return b2i(st.Connected) }},
	} {
		fmt.Fprintf(w, "# TYPE %s %s\n", c.name, c.typ)
		for _, p := range peers {
			fmt.Fprintf(w, "%s{peer=%q} %d\n", c.name, p, c.v(stats[p]))
		}
	}
	fmt.Fprintf(w, "# TYPE lpp_replica_lag_seconds gauge\n")
	for _, p := range peers {
		fmt.Fprintf(w, "lpp_replica_lag_seconds{peer=%q,quantile=\"0.5\"} %.6f\n", p, stats[p].LagP50.Seconds())
		fmt.Fprintf(w, "lpp_replica_lag_seconds{peer=%q,quantile=\"0.99\"} %.6f\n", p, stats[p].LagP99.Seconds())
	}
}
