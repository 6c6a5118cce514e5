package server

// The engine layer: the per-session worker goroutine that is the sole
// owner of a session's detector, consumer chain, and durable log.
// Everything above it communicates through the chunk queue; the only
// shared state is the session's atomic counters. Restore/checkpoint
// and the snapshot framing live in engine_state.go.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"
	"sync/atomic"

	"lpp/internal/durable"
	"lpp/internal/knowledge"
	"lpp/internal/online"
	"lpp/internal/phase"
	"lpp/internal/trace"
)

// op selects what a queued chunk asks the worker to do.
type op int

const (
	// opEvents feeds a chunk of trace events to the detector.
	opEvents op = iota
	// opClose flushes the detector and discards all session state,
	// durable state included.
	opClose
	// opSuspend checkpoints the session and stops the worker, leaving
	// the durable state recoverable. The detector is NOT flushed: a
	// flush would advance it past where an uninterrupted run would be,
	// breaking recovery parity.
	opSuspend
	// opConsumers reports the session's consumer-chain state (counters,
	// snapshot hashes, reports) without feeding the detector.
	opConsumers
	// opExport checkpoints the session and returns the LPPCKPT1 image
	// as the result body — the live-migration wire payload. Like
	// opSuspend, the detector is not flushed and the worker exits.
	opExport
)

// chunk is one unit of per-session work.
type chunk struct {
	op op
	// seq is the client's sequence number for an opEvents chunk;
	// 0 means "assign the next one" (no idempotency requested).
	seq uint64
	// cols is an opEvents chunk's payload, whatever its wire format.
	cols  *trace.Columns
	reply chan result
}

// result is the worker's answer to one chunk.
type result struct {
	status   int
	body     []byte
	seq      uint64
	replayed bool
	// wantSeq, set on sequence-gap conflicts, is the sequence number
	// the worker expects next (the X-Lpp-Want-Seq header).
	wantSeq uint64
}

// session is one detection stream. The worker goroutine is the sole
// owner of the detector and the durable log; handlers communicate
// through the queue and read only the atomic counters.
type session struct {
	id    string
	queue chan chunk
	// kill simulates a crash (chaos tests): the worker stops where it
	// stands without flushing or checkpointing.
	kill     chan struct{}
	killOnce sync.Once
	// done is closed when the worker has exited, however it exited.
	done chan struct{}
	// ready is closed once recovery/replay has finished.
	ready chan struct{}

	// Counters maintained by the worker, read by handlers.
	lastActive  atomic.Int64
	seq         atomic.Uint64
	quarantined atomic.Bool
	events      atomic.Int64
	boundaries  atomic.Int64
	predictions atomic.Int64
	dropped     atomic.Int64 // always 0: the detector drops no events
	shed        atomic.Int64
}

// worker holds the state only the session goroutine touches.
type worker struct {
	s    *Server
	sess *session
	cfg  online.Config
	det  *online.Detector
	// chain is the session's run-time adaptation chain (nil without
	// Config.Consumers); it sees every detector event and its state is
	// checkpointed alongside the detector's.
	chain *phase.Chain
	// consBase is the chain's counters at the last metrics flush, so
	// deltas fold into the server-wide per-consumer totals.
	consBase []phase.ConsumerStats
	// Detector hardening counters at the last metrics flush (and after
	// a snapshot restore, whose counts the writing process already
	// reported); updateStats folds the deltas into the server totals.
	baseSuppressed int64
	baseRestarts   int64
	baseTruncated  int64
	// pending accumulates detector output between chunk boundaries.
	pending []phase.Event
	// log is the session's durable state; nil when the server is
	// ephemeral.
	log *durable.Log
	// walRows is the scratch the row-shaped WAL entry is built in;
	// its capacity is bounded like the decode pool's.
	walRows []trace.Event
	// lastSeq is the highest accepted sequence number; cached is the
	// response body it produced, replayed verbatim on a duplicate POST.
	lastSeq   uint64
	cached    []byte
	sinceCkpt int
	// quarantined is set when the detector panicked (or recovery failed)
	// and its state can no longer be trusted. The worker stays up to
	// answer requests with an error, but never feeds the detector again
	// and never checkpoints.
	quarantined bool
}

// run is the session worker: the only goroutine touching the detector.
func (s *Server) run(sess *session) {
	defer close(sess.done)
	w := &worker{s: s, sess: sess}
	w.cfg = s.cfg.Detector
	if s.cfg.Consumers != nil {
		w.chain = s.cfg.Consumers()
		w.consBase = w.chain.Stats()
	}
	w.cfg.OnEvent = func(ev phase.Event) {
		w.pending = append(w.pending, ev)
		if w.chain != nil {
			// Chain.Consume never fails: consumer errors and panics are
			// isolated per consumer inside the chain.
			w.chain.Consume(ev)
		}
	}
	w.det = online.NewDetector(w.cfg)
	if s.store != nil {
		s.adoptReplica(sess.id)
		w.log = s.store.Session(sess.id)
		w.restore()
		sess.seq.Store(w.lastSeq)
	}
	close(sess.ready)
	for {
		select {
		case c := <-sess.queue:
			res := w.handle(c)
			sess.seq.Store(w.lastSeq)
			c.reply <- res
			if c.op == opClose || c.op == opSuspend || c.op == opExport {
				return
			}
		case <-sess.kill:
			return
		}
	}
}

func (w *worker) handle(c chunk) result {
	switch c.op {
	case opClose:
		return w.close()
	case opSuspend:
		return w.suspend()
	case opConsumers:
		return w.consumers()
	case opExport:
		return w.export()
	default:
		return w.events(c)
	}
}

// safe runs f, converting a panic into quarantine. Returns false if f
// panicked.
func (w *worker) safe(f func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			w.poison()
			w.s.m.panics.Add(1)
		}
	}()
	f()
	return true
}

func (w *worker) poison() {
	w.quarantined = true
	w.sess.quarantined.Store(true)
}

func (w *worker) quarantineResult(seq uint64) result {
	return result{status: http.StatusInternalServerError, body: errBody("quarantined"), seq: seq}
}

func (w *worker) events(c chunk) result {
	if w.quarantined {
		return w.quarantineResult(w.lastSeq)
	}
	seq := c.seq
	if seq == 0 {
		seq = w.lastSeq + 1
	}
	switch {
	case seq == w.lastSeq && seq > 0:
		// Idempotent retransmit: the chunk was already applied; hand
		// back the response it produced the first time.
		w.s.m.replayed.Add(1)
		return result{status: http.StatusOK, body: w.cached, seq: seq, replayed: true}
	case seq != w.lastSeq+1:
		return result{
			status:  http.StatusConflict,
			body:    errBody(fmt.Sprintf("sequence gap: got %d, want %d", seq, w.lastSeq+1)),
			seq:     seq,
			wantSeq: w.lastSeq + 1,
		}
	}
	// Queue occupancy is the pressure signal: a backed-up consumer
	// degrades detection fidelity instead of memory. It is sampled as
	// the chunk is taken, so the WAL append below is not counted as
	// backlog.
	pressure := float64(len(w.sess.queue)) / float64(cap(w.sess.queue))
	// Log before processing: a worker killed between here and the reply
	// replays this chunk on recovery instead of losing it.
	if w.log != nil {
		w.walRows = c.cols.AppendEvents(w.walRows[:0])
		err := w.log.Append(durable.Entry{Seq: seq, Events: w.walRows})
		if cap(w.walRows) > maxRetainedEvents {
			w.walRows = nil
		}
		if err != nil {
			w.s.m.walErrors.Add(1)
			return result{status: http.StatusInternalServerError, body: errBody("wal append failed"), seq: seq}
		}
	}
	if !w.safe(func() {
		if hook := w.s.testChunkHook; hook != nil {
			hook()
		}
		w.det.SetPressure(pressure)
		w.det.AccessColumns(c.cols)
	}) {
		return w.quarantineResult(seq)
	}
	w.updateStats()
	body := w.emit()
	w.lastSeq = seq
	w.cached = body
	w.sinceCkpt++
	if w.log != nil && w.sinceCkpt >= w.s.cfg.CheckpointEvery {
		w.checkpoint()
	}
	return result{status: http.StatusOK, body: body, seq: seq}
}

// emit encodes and counts the pending detector output.
func (w *worker) emit() []byte {
	w.s.m.boundaries.Add(countKind(w.pending, phase.BoundaryDetected))
	w.s.m.predictions.Add(countKind(w.pending, phase.PhasePredicted))
	w.flushConsumerStats()
	body := encodeEvents(w.pending)
	w.pending = nil
	return body
}

// flushConsumerStats folds the chain's delivery counters since the
// last flush into the server-wide per-consumer metrics.
func (w *worker) flushConsumerStats() {
	if w.chain == nil {
		return
	}
	stats := w.chain.Stats()
	for i := range stats {
		w.s.m.addConsumer(i, stats[i].Consumed-w.consBase[i].Consumed, stats[i].Errors-w.consBase[i].Errors)
	}
	w.consBase = stats
}

// consumers answers opConsumers: the chain's per-consumer counters,
// state hashes (fnv64a over each consumer's snapshot — the recovery
// parity fingerprint), and human reports.
func (w *worker) consumers() result {
	if w.chain == nil {
		return result{status: http.StatusNotFound, body: errBody("no consumers configured"), seq: w.lastSeq}
	}
	type consumerInfo struct {
		Name      string `json:"name"`
		Consumed  int64  `json:"consumed"`
		Errors    int64  `json:"errors"`
		StateHash string `json:"state_hash"`
		Report    string `json:"report,omitempty"`
	}
	stats := w.chain.Stats()
	out := make([]consumerInfo, 0, len(stats))
	for i, cons := range w.chain.Consumers() {
		h := fnv.New64a()
		h.Write(cons.Snapshot())
		info := consumerInfo{
			Name:      stats[i].Name,
			Consumed:  stats[i].Consumed,
			Errors:    stats[i].Errors,
			StateHash: fmt.Sprintf("%016x", h.Sum64()),
		}
		if r, ok := cons.(phase.Reporter); ok {
			info.Report = r.Report()
		}
		out = append(out, info)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return result{status: http.StatusInternalServerError, body: errBody(err.Error()), seq: w.lastSeq}
	}
	return result{status: http.StatusOK, body: append(b, '\n'), seq: w.lastSeq}
}

func (w *worker) close() result {
	if w.log != nil {
		if err := w.log.Remove(); err != nil {
			w.s.m.walErrors.Add(1)
		}
		// FIFO queue order guarantees this lands after any pending
		// checkpoint of the same session.
		if rep := w.s.replicatorFor(w.sess.id); rep != nil {
			rep.EnqueueRemove(w.sess.id)
		}
	}
	if w.quarantined {
		return w.quarantineResult(w.lastSeq)
	}
	if !w.safe(func() { w.det.Flush() }) {
		return w.quarantineResult(w.lastSeq)
	}
	w.updateStats()
	body := w.emit()
	w.contributeKnowledge()
	return result{status: http.StatusOK, body: body, seq: w.lastSeq}
}

func (w *worker) suspend() result {
	if w.log != nil {
		if !w.quarantined && w.sinceCkpt > 0 {
			w.checkpoint()
		}
		w.log.Close()
	}
	if !w.quarantined {
		w.contributeKnowledge()
	}
	return result{status: http.StatusNoContent, seq: w.lastSeq}
}

// export answers opExport: snapshot the session at its last accepted
// sequence number and hand back the LPPCKPT1 image — the disk format
// doubles as the migration wire format. The image is also checkpointed
// locally first, so a migration that dies between export and import
// leaves the session recoverable right here; the local state is only
// removed at migration complete. The worker exits afterwards (the
// registry unlinked the session before dispatching the export).
func (w *worker) export() result {
	if w.quarantined {
		// A quarantined detector's state cannot be trusted; shipping it
		// to another node would just move the poison.
		return result{status: http.StatusConflict, body: errBody("session quarantined; not migratable"), seq: w.lastSeq}
	}
	snap, ok := w.persist()
	if w.quarantined {
		return w.quarantineResult(w.lastSeq)
	}
	if !ok {
		return result{status: http.StatusInternalServerError, body: errBody("checkpoint failed"), seq: w.lastSeq}
	}
	if w.log != nil {
		w.log.Close()
	}
	w.contributeKnowledge()
	image := durable.EncodeCheckpoint(w.lastSeq, snap, w.cached)
	return result{status: http.StatusOK, body: image, seq: w.lastSeq}
}

// contributeKnowledge folds the session's learned phase knowledge into
// the server's store and persists it. A session with nothing worth
// donating (too few boundaries, no settled phases) is a no-op.
func (w *worker) contributeKnowledge() {
	store := w.s.cfg.Knowledge
	if store == nil || w.chain == nil {
		return
	}
	for _, cons := range w.chain.Consumers() {
		kc, ok := cons.(*knowledge.Consumer)
		if !ok {
			continue
		}
		if entry, ok := kc.Entry(); ok {
			store.Contribute(entry)
			if err := store.Persist(); err != nil {
				w.s.m.walErrors.Add(1)
			}
			for _, rep := range w.s.replicators() {
				rep.EnqueueKnowledge(store.Snapshot())
			}
		}
		return
	}
}

func (w *worker) updateStats() {
	st := w.det.Stats()
	w.sess.events.Store(st.Accesses + st.Blocks)
	w.sess.boundaries.Store(st.Boundaries)
	w.sess.predictions.Store(st.Predictions)
	w.sess.dropped.Store(st.DroppedEvents)
	w.sess.shed.Store(st.Shed)
	w.s.m.detSuppressed.Add(st.SuppressedBoundaries - w.baseSuppressed)
	w.s.m.detRestarts.Add(st.GrammarRestarts - w.baseRestarts)
	w.s.m.detTruncated.Add(st.TruncatedPages - w.baseTruncated)
	w.baseSuppressed = st.SuppressedBoundaries
	w.baseRestarts = st.GrammarRestarts
	w.baseTruncated = st.TruncatedPages
}
