package server

// The transport layer: HTTP routes, header protocol (sequence numbers,
// replay/rewind markers, backpressure hints), and the NDJSON wire
// encoding of phase events. Handlers never touch a worker directly —
// they decode, ask the registry to dispatch, and map the registry's
// errors onto status codes.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"lpp/internal/knowledge"
	"lpp/internal/phase"
)

// routes installs the handler table.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/sessions/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	s.mux.HandleFunc("GET /v1/sessions", s.handleSessions)
	s.mux.HandleFunc("GET /v1/sessions/{id}/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/sessions/{id}/consumers", s.handleConsumers)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/knowledge", s.handleKnowledge)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	if s.store != nil { // replica images are kept on disk
		s.mux.HandleFunc("GET /v1/replica/{origin}/status", s.handleReplicaStatus)
		s.mux.HandleFunc("PUT /v1/replica/{origin}/sessions/{id}", s.handleReplicaPut)
		s.mux.HandleFunc("DELETE /v1/replica/{origin}/sessions/{id}", s.handleReplicaDelete)
		s.mux.HandleFunc("PUT /v1/replica/{origin}/knowledge", s.handleReplicaKnowledge)
	}
	s.mux.HandleFunc("POST /v1/migrate/sessions/{id}/export", s.handleMigrateExport)
	s.mux.HandleFunc("PUT /v1/migrate/sessions/{id}", s.handleMigrateImport)
	s.mux.HandleFunc("POST /v1/migrate/sessions/{id}/complete", s.handleMigrateComplete)
	s.mux.HandleFunc("POST /v1/migrate/sessions/{id}/abort", s.handleMigrateAbort)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	seq, err := parseSeq(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	st := getDecodeState()
	cols, err := s.decodeChunk(r, st)
	if err != nil {
		putDecodeState(st)
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	n := cols.N
	start := time.Now()
	res, err := s.dispatch(id, chunk{op: opEvents, seq: seq, cols: cols})
	if !errors.Is(err, errSessionDown) {
		// Nothing references the decoded columns any more: the worker
		// replied (the WAL encodes them before the reply), or the chunk
		// was never enqueued. A chunk that may still sit in a dead
		// worker's queue is left to the garbage collector instead.
		putDecodeState(st)
	}
	switch {
	case err == nil:
		if res.status == http.StatusOK && !res.replayed {
			s.m.observeChunk(time.Since(start), n)
		}
		writeResult(w, res)
	case errors.Is(err, errQueueFull):
		// Backpressure: the client should retry after draining; the
		// chunk is not partially applied (and was never enqueued).
		s.m.rejectedChunks.Add(1)
		// Hint how long the drain actually takes (ms precision; the
		// standard Retry-After below is a blunt whole second).
		w.Header().Set("X-Lpp-Retry-After-Ms", strconv.FormatInt(s.retryHintMs(), 10))
		writeErr(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, errSessionDown):
		writeErr(w, http.StatusServiceUnavailable, "session terminated; retry")
	case errors.Is(err, errMigrating):
		// The session's image is in flight to another node; the router
		// holds the chunk and retries until the handoff lands.
		w.Header().Set("X-Lpp-Retry-After-Ms", strconv.FormatInt(s.retryHintMs(), 10))
		writeErr(w, http.StatusServiceUnavailable, err.Error())
	default:
		// A session that lives elsewhere now answers 421 naming its
		// owner, so the router can follow it.
		writeSessionErr(w, err)
	}
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// A suspended session is revived so the close can flush the
	// detector and return the final phase events before discarding.
	sess, err := s.detach(id, nil)
	if err != nil {
		writeSessionErr(w, err)
		return
	}
	start := time.Now()
	res, err := sess.roundTrip(chunk{op: opClose})
	switch {
	case errors.Is(err, errNotEnqueued) && !s.hasState(id):
		// Dead ephemeral worker: nothing is left to flush.
		writeResult(w, result{status: http.StatusOK})
		return
	case err != nil:
		// Dead durable worker. Keep the durable state: a retried DELETE
		// will revive the session and flush it properly.
		writeErr(w, http.StatusServiceUnavailable, errSessionDown.Error())
		return
	}
	s.m.observeChunk(time.Since(start), 0)
	writeResult(w, res)
}

// writeSessionErr maps a registry error onto its status: 404 for an
// unknown session, 421 with X-Lpp-Owner for one that moved away, 503
// for anything else.
func writeSessionErr(w http.ResponseWriter, err error) {
	var remote *remoteError
	switch {
	case errors.Is(err, errNoSession):
		writeErr(w, http.StatusNotFound, err.Error())
	case errors.As(err, &remote):
		w.Header().Set("X-Lpp-Owner", remote.owner)
		writeErr(w, http.StatusMisdirectedRequest, err.Error())
	default:
		writeErr(w, http.StatusServiceUnavailable, err.Error())
	}
}

// handleSessions lists every session this node knows about — live,
// suspended, migrating, and migrated-away — so placement and migration
// are debuggable from curl.
func (s *Server) handleSessions(w http.ResponseWriter, _ *http.Request) {
	entries := s.listSessions()
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Node     string         `json:"node,omitempty"`
		Sessions []sessionEntry `json:"sessions"`
	}{s.cfg.Advertise, entries})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess, err := s.getSession(id, false)
	if err != nil {
		writeErr(w, http.StatusNotFound, err.Error())
		return
	}
	quarantined := int64(0)
	if sess.quarantined.Load() {
		quarantined = 1
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]int64{
		"events":      sess.events.Load(),
		"boundaries":  sess.boundaries.Load(),
		"predictions": sess.predictions.Load(),
		"dropped":     sess.dropped.Load(), // always 0; kept for existing clients
		"shed":        sess.shed.Load(),
		"seq":         int64(sess.seq.Load()),
		"quarantined": quarantined,
	})
}

// handleConsumers reports a session's run-time consumer state: per
// consumer, its delivery counters, a hash of its snapshot (the
// recovery-parity fingerprint), and its human report. A suspended
// durable session is revived to answer.
func (s *Server) handleConsumers(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.getSession(id, false); err != nil {
		// Only revive sessions that actually exist somewhere: in-memory
		// miss plus no durable state is a plain 404, not a create.
		if !s.hasState(id) {
			writeErr(w, http.StatusNotFound, err.Error())
			return
		}
	}
	c := chunk{op: opConsumers, reply: make(chan result, 1)}
	res, err := s.dispatch(id, c)
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.status)
	w.Write(res.body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	state := s.State()
	if state != "ready" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	io.WriteString(w, state+"\n")
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

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.m.write(w, s.liveSessions())
	if s.cfg.Knowledge != nil {
		st := s.cfg.Knowledge.Stats()
		fmt.Fprintf(w, "# TYPE lpp_knowledge_entries gauge\n")
		fmt.Fprintf(w, "lpp_knowledge_entries %d\n", st.Entries)
		fmt.Fprintf(w, "# TYPE lpp_knowledge_bytes gauge\n")
		fmt.Fprintf(w, "lpp_knowledge_bytes %d\n", st.Bytes)
		fmt.Fprintf(w, "# TYPE lpp_knowledge_hits_total counter\n")
		fmt.Fprintf(w, "lpp_knowledge_hits_total %d\n", st.Hits)
		fmt.Fprintf(w, "# TYPE lpp_knowledge_misses_total counter\n")
		fmt.Fprintf(w, "lpp_knowledge_misses_total %d\n", st.Misses)
		fmt.Fprintf(w, "# TYPE lpp_knowledge_lookups_total counter\n")
		fmt.Fprintf(w, "lpp_knowledge_lookups_total %d\n", st.Lookups)
		fmt.Fprintf(w, "# TYPE lpp_knowledge_evictions_total counter\n")
		fmt.Fprintf(w, "lpp_knowledge_evictions_total %d\n", st.Evictions)
	}
	s.writeReplicaMetrics(w)
}

// handleKnowledge reports the knowledge store's inventory: counters
// plus one summary per stored program.
func (s *Server) handleKnowledge(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Knowledge == nil {
		writeErr(w, http.StatusNotFound, "no knowledge store configured")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Stats   knowledge.Stats     `json:"stats"`
		Entries []knowledge.Summary `json:"entries"`
	}{s.cfg.Knowledge.Stats(), s.cfg.Knowledge.Summaries()})
}

// parseSeq extracts the client sequence number from the X-Lpp-Seq
// header (or ?seq= for header-less clients). Absent means "assign the
// next one"; sequence numbers start at 1.
func parseSeq(r *http.Request) (uint64, error) {
	v := r.Header.Get("X-Lpp-Seq")
	if v == "" {
		v = r.URL.Query().Get("seq")
	}
	if v == "" {
		return 0, nil
	}
	seq, err := strconv.ParseUint(v, 10, 64)
	if err != nil || seq == 0 {
		return 0, fmt.Errorf("bad sequence number %q", v)
	}
	return seq, nil
}

// writeResult renders a worker result: the sequence headers, then the
// NDJSON body (or the JSON error body for failures).
func writeResult(w http.ResponseWriter, res result) {
	if res.seq > 0 {
		w.Header().Set("X-Lpp-Seq", strconv.FormatUint(res.seq, 10))
	}
	if res.replayed {
		w.Header().Set("X-Lpp-Replayed", "true")
	}
	if res.wantSeq > 0 {
		// Sequence-gap responses tell the client where to rewind to, so
		// a failover client can replay its tail from the right chunk.
		w.Header().Set("X-Lpp-Want-Seq", strconv.FormatUint(res.wantSeq, 10))
	}
	if res.status >= 400 {
		w.Header().Set("Content-Type", "application/json")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// writeErr sends a JSON error body; retryable statuses carry
// Retry-After.
func writeErr(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	w.Write(errBody(msg))
}

func errBody(msg string) []byte {
	b, _ := json.Marshal(map[string]string{"error": msg})
	return append(b, '\n')
}

// wireEvent is the NDJSON representation of a trace event (input) or
// phase event (output).
type wireEvent struct {
	Kind   string `json:"kind"`
	Addr   uint64 `json:"addr,omitempty"`
	Block  uint64 `json:"block,omitempty"`
	Instrs int    `json:"instrs,omitempty"`
}

// phaseWire is the NDJSON representation of one detector output event.
type phaseWire struct {
	Kind         string `json:"kind"`
	Time         int64  `json:"time"`
	Instructions int64  `json:"instructions"`
	Phase        int    `json:"phase"`
}

// encodeEvents renders detector output as NDJSON body bytes.
func encodeEvents(events []phase.Event) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ev := range events {
		enc.Encode(phaseWire{
			Kind:         ev.Kind.String(),
			Time:         ev.Time,
			Instructions: ev.Instructions,
			Phase:        ev.Phase,
		})
	}
	return buf.Bytes()
}

func countKind(events []phase.Event, k phase.Kind) int64 {
	var n int64
	for _, ev := range events {
		if ev.Kind == k {
			n++
		}
	}
	return n
}
