package online

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"

	"lpp/internal/codec"
	"lpp/internal/core"
	"lpp/internal/reuse"
	"lpp/internal/sampling"
	"lpp/internal/sequitur"
	"lpp/internal/trace"
)

// Snapshot format: a self-contained, versioned binary image of a
// Detector between chunks. The recovery-parity guarantee rests on it:
// a detector restored from a snapshot consumes the rest of the stream
// exactly as the original would have, so snapshot + write-ahead-log
// replay reproduces the uninterrupted run bit for bit. Every map is
// serialized in sorted order, so the same detector state always yields
// the same bytes (Snapshot∘Restore∘Snapshot is the identity).
//
//	"LPPSNAP" | version byte | config fingerprint (8B LE) | body | CRC32 (4B LE)
//
// The fingerprint is a hash of the effective Config: restoring under a
// different configuration would silently change future behavior, so it
// is refused instead. The CRC covers everything before it; decode
// validates structure and referential integrity field by field, so a
// truncated or bit-flipped snapshot is detected, never applied.
const (
	snapMagic   = "LPPSNAP"
	snapVersion = 2 // v2: hardening counters + MinBoundaryGap/MaxSignature in the fingerprint
)

// Snapshot decode errors, distinguishable by errors.Is.
var (
	ErrSnapshotCorrupt = errors.New("online: snapshot corrupt")
	ErrSnapshotVersion = errors.New("online: unsupported snapshot version")
	ErrSnapshotConfig  = errors.New("online: snapshot config mismatch")
)

// maxPendingSlot is the default of the deleted buffered-event cap,
// written in its old fingerprint slot.
const maxPendingSlot = 1024

// fingerprint hashes the effective (defaulted) configuration fields
// that shape detection behavior; OnEvent is delivery, not behavior.
// The detection constants, the values derived from CheckEvery and the
// deleted event-queue cap keep the slots they had as Config fields, so
// fingerprints, and the image headers that carry them, stay stable.
func (c Config) fingerprint() uint64 {
	var e codec.Enc
	e.F64(c.Epsilon)
	e.Num(c.MaxLive)
	e.Num(c.MaxDataSamples)
	e.Num(SubTraceWindow)
	e.Num(FilterLag)
	e.Num(MinSubTrace)
	e.Num(BoundaryWindow)
	e.Num(BoundaryMargin)
	e.F64(Alpha)
	e.Num(MaxSpan)
	e.Num(int(Wavelet))
	e.Flag(c.KeepIrregular)
	seed := sampling.DefaultConfig()
	e.I64(seed.Qualification)
	e.I64(seed.Temporal)
	e.I64(seed.Spatial)
	e.F64(TargetRate)
	e.I64(c.CheckEvery)
	e.I64(c.decideHorizon())
	e.I64(c.staleAfter())
	e.Num(c.MaxGrammar)
	e.Num(c.PhaseTail)
	e.Num(c.MaxPhases)
	e.F64(Similarity)
	e.Num(maxPendingSlot)
	e.Num(c.MaxStride)
	e.I64(c.MinBoundaryGap)
	e.Num(c.MaxSignature)
	h := fnv.New64a()
	h.Write(e.Buf)
	return h.Sum64()
}

// encIntSet writes a set as its members in ascending order.
func encIntSet(e *codec.Enc, set map[int]struct{}) {
	e.Num(len(set))
	for _, k := range codec.SortedKeys(set) {
		e.Num(k)
	}
}

// decIntSet reads a set written by encIntSet.
func decIntSet(dec *codec.Dec) map[int]struct{} {
	n := dec.Length(1)
	set := make(map[int]struct{}, n)
	for i, k := 0, 0; i < n && dec.Err() == nil; i++ {
		k = dec.Key(i, k)
		set[k] = struct{}{}
	}
	return set
}

// Snapshot serializes the detector's complete state. Call it between
// Access/Flush calls (the worker does so at chunk boundaries); the
// detector is left untouched.
func (d *Detector) Snapshot() []byte {
	var e codec.Enc
	e.Buf = append(e.Buf, snapMagic...)
	e.Buf = append(e.Buf, snapVersion)
	e.Buf = binary.LittleEndian.AppendUint64(e.Buf, d.cfg.fingerprint())

	// Scalars.
	e.I64(d.now)
	e.I64(d.blocks)
	e.I64(d.instrs)
	e.I64(d.sel.Qual)
	e.I64(d.sel.Temporal)
	e.I64(d.sel.Spatial)
	e.I64(d.samples)
	e.I64(d.lastCheck)
	e.I64(d.lastCheckSamples)
	e.Num(d.adjustments)
	e.I64(d.evictRetry)
	e.Num(d.stride)
	e.I64(d.strideAt)
	e.I64(d.shed)
	e.I64(d.filtered)
	e.I64(d.lastBoundary)
	e.I64(d.segStart)
	e.I64(d.boundaries)
	e.I64(d.predictions)
	e.I64(0) // dropped events: none since OnEvent became the only delivery
	e.I64(d.suppressed)

	// Approximate reuse analyzer.
	ast := d.analyzer.State()
	e.F64(ast.Eps)
	e.I64(ast.Now)
	e.I64(ast.Live)
	e.Num(len(ast.Addrs))
	for i := range ast.Addrs {
		e.U64(uint64(ast.Addrs[i]))
		e.I64(ast.Times[i])
	}
	e.Num(len(ast.BucketTimes))
	for i := range ast.BucketTimes {
		e.I64(ast.BucketTimes[i])
		e.I64(ast.BucketCounts[i])
	}

	// Sampler slots (the selector's index and spatial set are derived
	// on restore).
	e.Num(len(d.data))
	for _, dt := range d.data {
		if dt == nil {
			e.Flag(false)
			continue
		}
		e.Flag(true)
		e.U64(uint64(dt.addr))
		e.Num(dt.undecided)
		e.Num(len(dt.times))
		for i := range dt.times {
			e.I64(dt.times[i])
			e.F64(dt.dists[i])
		}
	}
	e.Num(len(d.free))
	for _, id := range d.free {
		e.Num(id)
	}

	// Partition window.
	e.Num(len(d.window))
	for _, s := range d.window {
		e.I64(s.time)
		e.Num(s.datum)
		e.Num(s.page)
	}

	// Pending events: none since OnEvent became the only delivery.
	e.Num(0)

	// Phase hierarchy: tail, page signatures, open segment, grammar.
	e.Num(len(d.hier.tail))
	for _, p := range d.hier.tail {
		e.Num(p)
	}
	e.Num(d.hier.grammarSize)
	e.I64(d.hier.restarts)
	e.I64(d.hier.truncated)
	e.Num(len(d.hier.known))
	for _, sig := range d.hier.known {
		encIntSet(&e, sig)
	}
	encIntSet(&e, d.hier.curSeg)

	bst := d.hier.builder.State()
	e.Num(bst.NextID)
	e.Num(len(bst.Rules))
	for _, rs := range bst.Rules {
		e.Num(rs.ID)
		e.Num(len(rs.Body))
		for _, s := range rs.Body {
			e.Flag(s.Terminal)
			e.Num(s.Value)
		}
	}
	e.Num(len(bst.Digrams))
	for _, ds := range bst.Digrams {
		e.Num(ds.Rule)
		e.Num(ds.Pos)
	}

	return codec.Seal(e.Buf)
}

// relink rebuilds the recency list, which snapshots leave out, from
// the tracked datums' last sample times (ties, which a live detector
// never produces, by slot).
func (d *Detector) relink() {
	ids := make([]int, 0, len(d.data))
	for id, dt := range d.data {
		if dt != nil {
			ids = append(ids, id)
		}
	}
	last := func(id int) int64 {
		times := d.data[id].times
		return times[len(times)-1]
	}
	slices.SortFunc(ids, func(a, b int) int {
		return cmp.Or(cmp.Compare(last(a), last(b)), cmp.Compare(a, b))
	})
	d.oldest, d.newest = -1, -1
	for _, id := range ids {
		d.pushNewest(id)
	}
}

// NewDetectorFromSnapshot returns a detector restored from a snapshot
// taken under the same configuration.
func NewDetectorFromSnapshot(cfg Config, data []byte) (*Detector, error) {
	d := NewDetector(cfg)
	if err := d.Restore(data); err != nil {
		return nil, err
	}
	return d, nil
}

// Restore replaces the detector's state with a decoded snapshot. The
// receiver's configuration (including OnEvent) is kept and must match
// the snapshot's fingerprint. On any error the detector is unchanged.
func (d *Detector) Restore(data []byte) error {
	header := len(snapMagic) + 1 + 8
	if len(data) < header+4 {
		return fmt.Errorf("%w: %d bytes is too short", ErrSnapshotCorrupt, len(data))
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return fmt.Errorf("%w: bad magic", ErrSnapshotCorrupt)
	}
	if v := data[len(snapMagic)]; v != snapVersion {
		return fmt.Errorf("%w: got %d, support %d", ErrSnapshotVersion, v, snapVersion)
	}
	body, ok := codec.Unseal(data)
	if !ok {
		return fmt.Errorf("%w: checksum mismatch", ErrSnapshotCorrupt)
	}
	if binary.LittleEndian.Uint64(data[len(snapMagic)+1:]) != d.cfg.fingerprint() {
		return ErrSnapshotConfig
	}

	dec := codec.NewDec(body[header:], ErrSnapshotCorrupt)
	nd := &Detector{cfg: d.cfg, filter: core.NewSubTraceFilter(Wavelet, d.cfg.KeepIrregular)}

	nd.now = dec.I64()
	nd.blocks = dec.I64()
	nd.instrs = dec.I64()
	nd.sel = newSelector(nd.cfg)
	nd.sel.Qual = dec.I64()
	nd.sel.Temporal = dec.I64()
	nd.sel.Spatial = dec.I64()
	nd.samples = dec.I64()
	nd.lastCheck = dec.I64()
	nd.lastCheckSamples = dec.I64()
	nd.adjustments = dec.Num()
	nd.evictRetry = dec.I64()
	nd.stride = dec.Num()
	nd.strideAt = dec.I64()
	nd.shed = dec.I64()
	nd.filtered = dec.I64()
	nd.lastBoundary = dec.I64()
	nd.segStart = dec.I64()
	nd.boundaries = dec.I64()
	nd.predictions = dec.I64()
	if dropped := dec.I64(); dropped != 0 {
		dec.Fail("%d dropped events, want 0", dropped)
	}
	nd.suppressed = dec.I64()
	if dec.Err() == nil && (nd.stride < 1 || nd.stride > nd.cfg.MaxStride) {
		dec.Fail("stride %d out of [1,%d]", nd.stride, nd.cfg.MaxStride)
	}
	// Feedback only ever scales positive thresholds, and a zero one
	// never recovers: 0 stays 0 under Raise and blocks lowering.
	if dec.Err() == nil && (nd.sel.Qual <= 0 || nd.sel.Temporal <= 0 || nd.sel.Spatial <= 0) {
		dec.Fail("thresholds %d/%d/%d not positive", nd.sel.Qual, nd.sel.Temporal, nd.sel.Spatial)
	}

	// Analyzer.
	var ast reuse.ApproxState
	ast.Eps = dec.F64()
	ast.Now = dec.I64()
	ast.Live = dec.I64()
	n := dec.Length(2)
	ast.Addrs = make([]trace.Addr, n)
	ast.Times = make([]int64, n)
	for i := 0; i < n; i++ {
		ast.Addrs[i] = trace.Addr(dec.U64())
		ast.Times[i] = dec.I64()
	}
	n = dec.Length(2)
	ast.BucketTimes = make([]int64, n)
	ast.BucketCounts = make([]int64, n)
	for i := 0; i < n; i++ {
		ast.BucketTimes[i] = dec.I64()
		ast.BucketCounts[i] = dec.I64()
	}
	if dec.Err() == nil {
		analyzer, err := reuse.NewApproxFromState(ast)
		if err != nil {
			dec.Fail("analyzer: %v", err)
		} else {
			nd.analyzer = analyzer
		}
	}

	// Sampler slots.
	nSlots := dec.Length(1)
	if dec.Err() == nil && nSlots > nd.cfg.MaxDataSamples {
		dec.Fail("%d slots exceed cap %d", nSlots, nd.cfg.MaxDataSamples)
	}
	nd.data = make([]*datum, 0, nSlots)
	nils := 0
	for i := 0; i < nSlots && dec.Err() == nil; i++ {
		if !dec.Flag() {
			nd.data = append(nd.data, nil)
			nils++
			continue
		}
		dt := &datum{addr: trace.Addr(dec.U64())}
		dt.undecided = dec.Num()
		cnt := dec.Length(9)
		dt.times = make([]int64, cnt)
		dt.dists = make([]float64, cnt)
		for j := 0; j < cnt; j++ {
			dt.times[j] = dec.I64()
			dt.dists[j] = dec.F64()
			if dec.Err() == nil && j > 0 && dt.times[j] <= dt.times[j-1] {
				dec.Fail("datum times not ascending")
			}
		}
		if dec.Err() != nil {
			break
		}
		// A live datum holds at least the sample that admitted it, and
		// all its samples precede the clock. The recency list rebuilt
		// below relies on both: it orders datums by last sample, and
		// every later sample must be newer than all of them.
		if cnt == 0 {
			dec.Fail("datum %d has an empty window", len(nd.data))
			break
		}
		if last := dt.times[cnt-1]; last >= nd.now {
			dec.Fail("datum sample time %d not before clock %d", last, nd.now)
			break
		}
		if dt.undecided < 0 || dt.undecided > len(dt.times) {
			dec.Fail("undecided %d out of window %d", dt.undecided, len(dt.times))
			break
		}
		if !nd.sel.Add(dt.addr, len(nd.data)) {
			dec.Fail("duplicate datum address %#x", uint64(dt.addr))
			break
		}
		nd.data = append(nd.data, dt)
	}
	nFree := dec.Length(1)
	if dec.Err() == nil && nFree != nils {
		dec.Fail("%d free ids but %d empty slots", nFree, nils)
	}
	nd.free = make([]int, 0, nFree)
	seenFree := make(map[int]bool, nFree)
	for i := 0; i < nFree && dec.Err() == nil; i++ {
		id := dec.Num()
		if id < 0 || id >= len(nd.data) || nd.data[id] != nil || seenFree[id] {
			dec.Fail("bad free slot %d", id)
			break
		}
		seenFree[id] = true
		nd.free = append(nd.free, id)
	}
	if dec.Err() == nil {
		nd.relink()
	}

	// Partition window.
	n = dec.Length(3)
	nd.window = make([]fsample, n)
	for i := 0; i < n; i++ {
		nd.window[i] = fsample{time: dec.I64(), datum: dec.Num(), page: dec.Num()}
	}

	// Pending events.
	if n := dec.Num(); n != 0 {
		dec.Fail("%d pending events, want 0", n)
	}

	// Hierarchy.
	h := &hierarchy{cfg: nd.cfg, memo: newHierarchyMemo(nd.cfg), curSeg: make(map[int]struct{})}
	n = dec.Length(1)
	h.tail = make([]int, 0, n)
	for i := 0; i < n && dec.Err() == nil; i++ {
		p := dec.Num()
		if p < 0 {
			dec.Fail("negative phase id in tail")
			break
		}
		h.tail = append(h.tail, p)
	}
	h.grammarSize = dec.Num()
	if dec.Err() == nil && h.grammarSize < 0 {
		dec.Fail("negative grammar size")
	}
	h.restarts = dec.I64()
	h.truncated = dec.I64()
	if dec.Err() == nil && (h.restarts < 0 || h.truncated < 0) {
		dec.Fail("negative hardening counter")
	}
	n = dec.Length(1)
	if dec.Err() == nil && n > nd.cfg.MaxPhases {
		dec.Fail("%d phases exceed cap %d", n, nd.cfg.MaxPhases)
	}
	h.known = make([]map[int]struct{}, 0, n)
	for i := 0; i < n && dec.Err() == nil; i++ {
		h.known = append(h.known, decIntSet(dec))
	}
	if dec.Err() == nil {
		for _, p := range h.tail {
			if p >= len(h.known) {
				dec.Fail("tail phase %d unknown", p)
				break
			}
		}
	}
	h.curSeg = decIntSet(dec)

	var bst sequitur.BuilderState
	bst.NextID = dec.Num()
	n = dec.Length(2)
	bst.Rules = make([]sequitur.RuleState, 0, n)
	for i := 0; i < n && dec.Err() == nil; i++ {
		rs := sequitur.RuleState{ID: dec.Num()}
		cnt := dec.Length(2)
		rs.Body = make([]sequitur.Symbol, cnt)
		for j := 0; j < cnt; j++ {
			rs.Body[j] = sequitur.Symbol{Terminal: dec.Flag(), Value: dec.Num()}
		}
		bst.Rules = append(bst.Rules, rs)
	}
	n = dec.Length(2)
	bst.Digrams = make([]sequitur.DigramState, 0, n)
	for i := 0; i < n && dec.Err() == nil; i++ {
		bst.Digrams = append(bst.Digrams, sequitur.DigramState{Rule: dec.Num(), Pos: dec.Num()})
	}
	if dec.Err() == nil {
		builder, err := sequitur.NewBuilderFromState(bst)
		if err != nil {
			dec.Fail("grammar: %v", err)
		} else {
			h.builder = builder
		}
	}
	nd.hier = h

	if err := dec.Done(); err != nil {
		return err
	}
	*d = *nd
	return nil
}
