package main

import (
	"bytes"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"lpp/internal/durable"
	"lpp/internal/knowledge"
	"lpp/internal/online"
	"lpp/internal/phase"
	"lpp/internal/reuse"
	"lpp/internal/trace"
)

// reference is what a direct in-process online.Detector emits for one
// program's chunks: the oracle every streamed session is checked
// against. In a traced run the same pass replays each chunk through the
// layers' public functions in pipeline order and times each call.
type reference struct {
	bodies []uint64 // response fingerprint per chunk
	// stats and closes hold the detector counters and the flush
	// response fingerprint after n chunks, for every n a session
	// stopped at.
	stats      map[int]online.Stats
	closes     map[int]uint64
	boundaries []int64 // boundary times over the whole trace, flush included
	layer      replayCost
}

// replayCost accumulates one program's traced replay.
type replayCost struct {
	chunks, events, accesses  int64
	decode                    time.Duration
	decodedEvents             int64
	detect, chain             time.Duration // detect includes the chain's share
	chainEvents               int64
	chunkDetect               []time.Duration
	approx, exact             time.Duration
	appendWAL                 time.Duration
	walBytes, walEvents       int64
	snapshot, checkpoint      time.Duration
	snapshotBytes, snapshots  int64
	contribute, persist       time.Duration
	contributions, persisting int64
}

// add folds another program's replay into c.
func (c *replayCost) add(o *replayCost) {
	c.chunks += o.chunks
	c.events += o.events
	c.accesses += o.accesses
	c.decode += o.decode
	c.decodedEvents += o.decodedEvents
	c.detect += o.detect
	c.chain += o.chain
	c.chainEvents += o.chainEvents
	c.chunkDetect = append(c.chunkDetect, o.chunkDetect...)
	c.approx += o.approx
	c.exact += o.exact
	c.appendWAL += o.appendWAL
	c.walBytes += o.walBytes
	c.walEvents += o.walEvents
	c.snapshot += o.snapshot
	c.checkpoint += o.checkpoint
	c.snapshotBytes += o.snapshotBytes
	c.snapshots += o.snapshots
	c.contribute += o.contribute
	c.contributions += o.contributions
	c.persist += o.persist
	c.persisting += o.persisting
}

// work is the traced in-process time the service spends on this
// program's chunks: decode, WAL append, detection with its chain, and
// the snapshot and checkpoint writes.
func (c *replayCost) work() time.Duration {
	return c.decode + c.appendWAL + c.detect + c.snapshot + c.checkpoint
}

// replayEnv is what a traced replay writes through: a durable store and
// knowledge store of its own, and the consumer chain of the workload.
type replayEnv struct {
	tr         *tracer
	durable    *durable.Store // nil for ephemeral workloads
	durableDir string         // the durable store's directory
	knowledge  *knowledge.Store
	consumers  string
	columns    bool // the service feeds v2 chunks as columns (ephemeral sessions)
}

// referenceAll builds every program's reference, two programs at a
// time. stops[p] lists the chunk counts sessions of program p stopped
// at. env is nil for an untraced reference.
func referenceAll(progs []*program, stops []map[int]bool, env *replayEnv) ([]*reference, error) {
	refs := make([]*reference, len(progs))
	errs := make([]error, len(progs))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			refs[i], errs[i] = buildReference(progs[i], stops[i], env)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", progs[i].name, err)
		}
	}
	return refs, nil
}

// buildReference feeds one program's chunks to a direct detector,
// recording each chunk's response fingerprint and the states sessions
// stopped at.
func buildReference(p *program, stops map[int]bool, env *replayEnv) (*reference, error) {
	ref := &reference{
		bodies: make([]uint64, len(p.chunks)),
		stats:  make(map[int]online.Stats),
		closes: make(map[int]uint64),
	}
	traced := env != nil
	var tr *tracer
	var chain *phase.Chain
	var kc *knowledge.Consumer
	if traced {
		tr = env.tr
		var err error
		if chain, kc, err = buildChain(env.consumers, env.knowledge); err != nil {
			return nil, err
		}
	}
	cost := &ref.layer
	var pending []phase.Event
	detectSpan := 0
	cfg := online.Config{OnEvent: func(ev phase.Event) {
		pending = append(pending, ev)
		if ev.Kind == phase.BoundaryDetected {
			ref.boundaries = append(ref.boundaries, ev.Time)
		}
		if chain != nil {
			t0 := time.Now()
			chain.Consume(ev)
			t1 := time.Now()
			tr.record("phase.chain", detectSpan, p.name, 0, t0, t1)
			cost.chain += t1.Sub(t0)
			cost.chainEvents++
		}
	}}
	det := online.NewDetector(cfg)

	var log *durable.Log
	walPath := ""
	if traced && env.durable != nil {
		log = env.durable.Session(p.name)
		defer log.Close()
		walPath = filepath.Join(env.durableDir, url.PathEscape(p.name), "wal.log")
	}
	approx := reuse.NewApproxAnalyzer(online.DefaultConfig().Epsilon)
	maxLive := online.DefaultConfig().MaxLive
	exact := reuse.NewAnalyzer()
	const checkpointEvery = 64 // the service's default Config.CheckpointEvery
	snaps := make(map[int][]byte)

	events := make([]trace.Event, 0, 8192)
	dec := newChunkDecoder()
	for i := range p.chunks {
		seq := i + 1
		events = p.chunkEvents(events[:0], i)
		chunkSpan := tr.reserve("replay.chunk", 0, p.name, seq)
		start := time.Now()
		useCols := false
		if traced {
			cost.chunks++
			cost.events += int64(len(events))
			decoded, cols, err := dec.decodeTimed(tr, chunkSpan, p, i, cost)
			if err != nil {
				return nil, err
			}
			if decoded != nil && !slices.Equal(decoded, events) {
				return nil, fmt.Errorf("chunk %d: decoded events differ from the generated ones", seq)
			}
			useCols = cols && env.columns
			if log != nil {
				t0 := time.Now()
				if err := log.Append(durable.Entry{Seq: uint64(seq), Events: events}); err != nil {
					return nil, err
				}
				t1 := time.Now()
				tr.record("durable.append", chunkSpan, p.name, seq, t0, t1)
				cost.appendWAL += t1.Sub(t0)
				cost.walEvents += int64(len(events))
			}
		}

		detectSpan = tr.reserve("online.detect", chunkSpan, p.name, seq)
		t0 := time.Now()
		if useCols {
			det.AccessColumns(&dec.cols)
		} else {
			det.AccessBatch(events)
		}
		t1 := time.Now()
		body := renderEvents(pending)
		pending = pending[:0]
		ref.bodies[i] = hashBody(body)

		if traced {
			tr.fill(detectSpan, t0, t1)
			cost.detect += t1.Sub(t0)
			cost.chunkDetect = append(cost.chunkDetect, t1.Sub(t0))
			if log != nil && seq%checkpointEvery == 0 {
				if err := checkpointTimed(tr, chunkSpan, p, log, walPath, det, chain, seq, body, cost); err != nil {
					return nil, err
				}
			}
			tr.fill(chunkSpan, start, time.Now())
			// The analyzers alone, on the same addresses, outside the
			// chunk span: the service runs them inside Detector.
			analyzersTimed(tr, p.name, seq, events, approx, maxLive, exact, cost)
		}
		if stops[seq] {
			ref.stats[seq] = det.Stats()
			if seq < len(p.chunks) {
				snaps[seq] = det.Snapshot()
			}
		}
	}
	detectSpan = 0 // the flush's chain deliveries belong to no chunk
	det.Flush()
	ref.closes[len(p.chunks)] = hashBody(renderEvents(pending))
	pending = pending[:0]
	if traced {
		if log != nil {
			if err := walSize(walPath, cost); err != nil {
				return nil, err
			}
		}
		contributeTimed(tr, p.name, kc, env.knowledge, cost)
	}

	// Sessions that stopped early were closed there: replay their
	// flush from the detector state at the stop.
	for n, snap := range snaps {
		var out []phase.Event
		d, err := online.NewDetectorFromSnapshot(online.Config{OnEvent: func(ev phase.Event) { out = append(out, ev) }}, snap)
		if err != nil {
			return nil, fmt.Errorf("restore at chunk %d: %w", n, err)
		}
		d.Flush()
		ref.closes[n] = hashBody(renderEvents(out))
	}
	return ref, nil
}

// buildChain builds the chain a service session runs: the named stock
// consumers, led by a knowledge consumer when a store is configured.
func buildChain(spec string, store *knowledge.Store) (*phase.Chain, *knowledge.Consumer, error) {
	if spec == "" {
		return nil, nil, nil
	}
	chain, err := phase.ParseChain(spec)
	if err != nil {
		return nil, nil, err
	}
	if store == nil {
		return chain, nil, nil
	}
	cons := chain.Consumers()
	var target *phase.PredictorConsumer
	for _, c := range cons {
		if pc, ok := c.(*phase.PredictorConsumer); ok {
			target = pc
			break
		}
	}
	kc := knowledge.NewConsumer(store, target)
	return phase.NewChain(append([]phase.Consumer{kc}, cons...)...), kc, nil
}

// chunkDecoder is the reusable state the service's decoders keep:
// columns for v2 chunks, a resettable trace.Reader for v1 rows.
type chunkDecoder struct {
	cols   trace.Columns
	br     *bytes.Reader
	rows   *trace.Reader
	events []trace.Event
}

func newChunkDecoder() *chunkDecoder {
	br := bytes.NewReader(nil)
	return &chunkDecoder{br: br, rows: trace.NewReader(br)}
}

// decodeTimed decodes chunk i the way the service does and returns its
// events, and whether they arrived as columns. NDJSON chunks go through
// the service's private parser and are not replayed (nil events).
func (d *chunkDecoder) decodeTimed(tr *tracer, parent int, p *program, i int, cost *replayCost) ([]trace.Event, bool, error) {
	body := p.chunks[i]
	d.events = d.events[:0]
	t0 := time.Now()
	switch p.formats[i] {
	case formatV2:
		if err := trace.DecodeChunkV2(body, &d.cols, 1<<24); err != nil {
			return nil, false, err
		}
	case formatV1:
		d.br.Reset(body)
		d.rows.Reset(d.br)
		for {
			ev, err := d.rows.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, false, err
			}
			d.events = append(d.events, ev)
		}
	default:
		return nil, false, nil
	}
	t1 := time.Now()
	tr.record("trace.decode", parent, p.name, i+1, t0, t1)
	cost.decode += t1.Sub(t0)
	if p.formats[i] == formatV2 {
		cost.decodedEvents += int64(d.cols.N)
		d.events = d.cols.AppendEvents(d.events)
		return d.events, true, nil
	}
	cost.decodedEvents += int64(len(d.events))
	return d.events, false, nil
}

// checkpointTimed snapshots the detector and chain and writes the
// checkpoint, as a durable session does every checkpointEvery chunks.
func checkpointTimed(tr *tracer, parent int, p *program, log *durable.Log, walPath string, det *online.Detector, chain *phase.Chain, seq int, body []byte, cost *replayCost) error {
	if err := walSize(walPath, cost); err != nil {
		return err
	}
	t0 := time.Now()
	snap := det.Snapshot()
	if chain != nil {
		snap = append(snap, chain.Snapshot()...)
	}
	t1 := time.Now()
	if err := log.Checkpoint(uint64(seq), snap, body); err != nil {
		return err
	}
	t2 := time.Now()
	tr.record("online.snapshot", parent, p.name, seq, t0, t1)
	tr.record("durable.checkpoint", parent, p.name, seq, t1, t2)
	cost.snapshot += t1.Sub(t0)
	cost.checkpoint += t2.Sub(t1)
	cost.snapshotBytes += int64(len(snap))
	cost.snapshots++
	return nil
}

// walSize adds the WAL's current size, past its header, to the
// replay's WAL byte count; call it before every checkpoint resets the
// log.
func walSize(path string, cost *replayCost) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	cost.walBytes += fi.Size() - int64(len("LPPWAL1\n"))
	return nil
}

// analyzersTimed runs the streaming and the exact reuse analyzers alone
// over the chunk's addresses.
func analyzersTimed(tr *tracer, name string, seq int, events []trace.Event, approx *reuse.ApproxAnalyzer, maxLive int, exact *reuse.Analyzer, cost *replayCost) {
	t0 := time.Now()
	n := int64(0)
	for _, ev := range events {
		if ev.Kind == trace.EventAccess {
			approx.AccessEvict(ev.Addr, maxLive)
			n++
		}
	}
	t1 := time.Now()
	for _, ev := range events {
		if ev.Kind == trace.EventAccess {
			exact.Access(ev.Addr)
		}
	}
	t2 := time.Now()
	tr.record("reuse.approx", 0, name, seq, t0, t1)
	tr.record("reuse.exact", 0, name, seq, t1, t2)
	cost.approx += t1.Sub(t0)
	cost.exact += t2.Sub(t1)
	cost.accesses += n
}

// contributeTimed folds the session's knowledge into the store and
// persists it, as a closing service session does.
func contributeTimed(tr *tracer, name string, kc *knowledge.Consumer, store *knowledge.Store, cost *replayCost) {
	if kc == nil {
		return
	}
	entry, ok := kc.Entry()
	if !ok {
		return
	}
	t0 := time.Now()
	store.Contribute(entry)
	t1 := time.Now()
	err := store.Persist()
	t2 := time.Now()
	tr.record("knowledge.contribute", 0, name, 0, t0, t1)
	tr.record("knowledge.persist", 0, name, 0, t1, t2)
	cost.contribute += t1.Sub(t0)
	cost.contributions++
	if err == nil {
		cost.persist += t2.Sub(t1)
		cost.persisting++
	}
}
