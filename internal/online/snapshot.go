package online

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"sort"

	"lpp/internal/core"
	"lpp/internal/phase"
	"lpp/internal/reuse"
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

type snapEnc struct{ buf []byte }

func (e *snapEnc) i64(v int64)  { e.buf = binary.AppendVarint(e.buf, v) }
func (e *snapEnc) u64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *snapEnc) num(v int)    { e.i64(int64(v)) }
func (e *snapEnc) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}
func (e *snapEnc) flag(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}
func (e *snapEnc) intSet(set map[int]struct{}) {
	keys := make([]int, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	e.num(len(keys))
	for _, k := range keys {
		e.num(k)
	}
}

// snapDec decodes with sticky errors and bounds checks: every length is
// capped by the bytes actually remaining, so corrupt input cannot force
// huge allocations or panics.
type snapDec struct {
	buf []byte
	off int
	err error
}

func (d *snapDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrSnapshotCorrupt, fmt.Sprintf(format, args...))
	}
}

func (d *snapDec) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint at %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *snapDec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *snapDec) num() int {
	v := d.i64()
	if int64(int(v)) != v {
		d.fail("int overflow")
		return 0
	}
	return int(v)
}

func (d *snapDec) f64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail("short float at %d", d.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

func (d *snapDec) flag() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.fail("short flag")
		return false
	}
	b := d.buf[d.off]
	d.off++
	if b > 1 {
		d.fail("bad flag %d", b)
	}
	return b == 1
}

// length decodes a list length whose elements occupy at least elemSize
// bytes each, rejecting lengths the remaining input cannot hold.
func (d *snapDec) length(elemSize int) int {
	n := d.num()
	if n < 0 {
		d.fail("negative length")
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if n > (len(d.buf)-d.off)/elemSize {
		d.fail("length %d exceeds input", n)
		return 0
	}
	return n
}

func (d *snapDec) intSet() map[int]struct{} {
	n := d.length(1)
	set := make(map[int]struct{}, n)
	for i := 0; i < n; i++ {
		set[d.num()] = struct{}{}
	}
	return set
}

// fingerprint hashes the effective (defaulted) configuration fields
// that shape detection behavior; OnEvent is delivery, not behavior.
func (c Config) fingerprint() uint64 {
	var e snapEnc
	e.f64(c.Epsilon)
	e.num(c.MaxLive)
	e.num(c.MaxDataSamples)
	e.num(c.SubTraceWindow)
	e.num(c.FilterLag)
	e.num(c.MinSubTrace)
	e.num(c.BoundaryWindow)
	e.num(c.BoundaryMargin)
	e.f64(c.Alpha)
	e.num(c.MaxSpan)
	e.num(int(c.Wavelet))
	e.flag(c.KeepIrregular)
	e.i64(c.Qualification)
	e.i64(c.Temporal)
	e.i64(c.Spatial)
	e.f64(c.TargetRate)
	e.i64(c.CheckEvery)
	e.i64(c.DecideHorizon)
	e.i64(c.StaleAfter)
	e.num(c.MaxGrammar)
	e.num(c.PhaseTail)
	e.num(c.MaxPhases)
	e.f64(c.Similarity)
	e.num(c.MaxPending)
	e.num(c.MaxStride)
	e.i64(c.MinBoundaryGap)
	e.num(c.MaxSignature)
	h := fnv.New64a()
	h.Write(e.buf)
	return h.Sum64()
}

// Snapshot serializes the detector's complete state. Call it between
// Access/Flush calls (the worker does so at chunk boundaries); the
// detector is left untouched.
func (d *Detector) Snapshot() []byte {
	var e snapEnc
	e.buf = append(e.buf, snapMagic...)
	e.buf = append(e.buf, snapVersion)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, d.cfg.fingerprint())

	// Scalars.
	e.i64(d.now)
	e.i64(d.blocks)
	e.i64(d.instrs)
	e.i64(d.qual)
	e.i64(d.temporal)
	e.i64(d.spatial)
	e.i64(d.samples)
	e.i64(d.lastCheck)
	e.i64(d.lastCheckSamples)
	e.num(d.adjustments)
	e.i64(d.evictRetry)
	e.num(d.stride)
	e.i64(d.strideAt)
	e.i64(d.shed)
	e.i64(d.filtered)
	e.i64(d.lastBoundary)
	e.i64(d.segStart)
	e.i64(d.boundaries)
	e.i64(d.predictions)
	e.i64(d.droppedEvents)
	e.i64(d.suppressed)

	// Approximate reuse analyzer.
	ast := d.analyzer.State()
	e.f64(ast.Eps)
	e.i64(ast.Now)
	e.i64(ast.Live)
	e.num(len(ast.Addrs))
	for i := range ast.Addrs {
		e.u64(uint64(ast.Addrs[i]))
		e.i64(ast.Times[i])
	}
	e.num(len(ast.BucketTimes))
	for i := range ast.BucketTimes {
		e.i64(ast.BucketTimes[i])
		e.i64(ast.BucketCounts[i])
	}

	// Sampler slots (dataIDs and sorted are derived on restore).
	e.num(len(d.data))
	for _, dt := range d.data {
		if dt == nil {
			e.flag(false)
			continue
		}
		e.flag(true)
		e.u64(uint64(dt.addr))
		e.num(dt.undecided)
		e.num(len(dt.times))
		for i := range dt.times {
			e.i64(dt.times[i])
			e.f64(dt.dists[i])
		}
	}
	e.num(len(d.free))
	for _, id := range d.free {
		e.num(id)
	}

	// Partition window.
	e.num(len(d.window))
	for _, s := range d.window {
		e.i64(s.time)
		e.num(s.datum)
		e.num(s.page)
	}

	// Pending (undrained) events.
	e.num(len(d.events))
	for _, ev := range d.events {
		e.num(int(ev.Kind))
		e.i64(ev.Time)
		e.i64(ev.Instructions)
		e.num(ev.Phase)
	}

	// Phase hierarchy: tail, page signatures, open segment, grammar.
	e.num(len(d.hier.tail))
	for _, p := range d.hier.tail {
		e.num(p)
	}
	e.num(d.hier.grammarSize)
	e.i64(d.hier.restarts)
	e.i64(d.hier.truncated)
	e.num(len(d.hier.known))
	for _, sig := range d.hier.known {
		e.intSet(sig)
	}
	e.intSet(d.hier.curSeg)

	bst := d.hier.builder.State()
	e.num(bst.NextID)
	e.num(len(bst.Rules))
	for _, rs := range bst.Rules {
		e.num(rs.ID)
		e.num(len(rs.Body))
		for _, s := range rs.Body {
			e.flag(s.Terminal)
			e.num(s.Value)
		}
	}
	e.num(len(bst.Digrams))
	for _, ds := range bst.Digrams {
		e.num(ds.Rule)
		e.num(ds.Pos)
	}

	e.buf = binary.LittleEndian.AppendUint32(e.buf, crc32.ChecksumIEEE(e.buf))
	return e.buf
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
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return fmt.Errorf("%w: checksum mismatch", ErrSnapshotCorrupt)
	}
	if binary.LittleEndian.Uint64(data[len(snapMagic)+1:]) != d.cfg.fingerprint() {
		return ErrSnapshotConfig
	}

	dec := &snapDec{buf: body, off: header}
	nd := &Detector{cfg: d.cfg, filter: core.NewSubTraceFilter(d.cfg.Wavelet, d.cfg.KeepIrregular)}

	nd.now = dec.i64()
	nd.blocks = dec.i64()
	nd.instrs = dec.i64()
	nd.qual = dec.i64()
	nd.temporal = dec.i64()
	nd.spatial = dec.i64()
	nd.samples = dec.i64()
	nd.lastCheck = dec.i64()
	nd.lastCheckSamples = dec.i64()
	nd.adjustments = dec.num()
	nd.evictRetry = dec.i64()
	nd.stride = dec.num()
	nd.strideAt = dec.i64()
	nd.shed = dec.i64()
	nd.filtered = dec.i64()
	nd.lastBoundary = dec.i64()
	nd.segStart = dec.i64()
	nd.boundaries = dec.i64()
	nd.predictions = dec.i64()
	nd.droppedEvents = dec.i64()
	nd.suppressed = dec.i64()
	if dec.err == nil && (nd.stride < 1 || nd.stride > nd.cfg.MaxStride) {
		dec.fail("stride %d out of [1,%d]", nd.stride, nd.cfg.MaxStride)
	}

	// Analyzer.
	var ast reuse.ApproxState
	ast.Eps = dec.f64()
	ast.Now = dec.i64()
	ast.Live = dec.i64()
	n := dec.length(2)
	ast.Addrs = make([]trace.Addr, n)
	ast.Times = make([]int64, n)
	for i := 0; i < n; i++ {
		ast.Addrs[i] = trace.Addr(dec.u64())
		ast.Times[i] = dec.i64()
	}
	n = dec.length(2)
	ast.BucketTimes = make([]int64, n)
	ast.BucketCounts = make([]int64, n)
	for i := 0; i < n; i++ {
		ast.BucketTimes[i] = dec.i64()
		ast.BucketCounts[i] = dec.i64()
	}
	if dec.err == nil {
		analyzer, err := reuse.NewApproxFromState(ast)
		if err != nil {
			dec.fail("analyzer: %v", err)
		} else {
			nd.analyzer = analyzer
		}
	}

	// Sampler slots.
	nSlots := dec.length(1)
	if dec.err == nil && nSlots > nd.cfg.MaxDataSamples {
		dec.fail("%d slots exceed cap %d", nSlots, nd.cfg.MaxDataSamples)
	}
	nd.data = make([]*datum, 0, nSlots)
	nd.dataIDs = newDataIndex(nd.cfg)
	nils := 0
	for i := 0; i < nSlots && dec.err == nil; i++ {
		if !dec.flag() {
			nd.data = append(nd.data, nil)
			nils++
			continue
		}
		dt := &datum{addr: trace.Addr(dec.u64())}
		dt.undecided = dec.num()
		cnt := dec.length(9)
		dt.times = make([]int64, cnt)
		dt.dists = make([]float64, cnt)
		for j := 0; j < cnt; j++ {
			dt.times[j] = dec.i64()
			dt.dists[j] = dec.f64()
			if dec.err == nil && j > 0 && dt.times[j] <= dt.times[j-1] {
				dec.fail("datum times not ascending")
			}
		}
		if dec.err != nil {
			break
		}
		if dt.undecided < 0 || dt.undecided > len(dt.times) {
			dec.fail("undecided %d out of window %d", dt.undecided, len(dt.times))
			break
		}
		if _, dup := nd.dataIDs.Swap(dt.addr, int64(len(nd.data))); dup {
			dec.fail("duplicate datum address %#x", uint64(dt.addr))
			break
		}
		nd.sorted = append(nd.sorted, dt.addr)
		nd.data = append(nd.data, dt)
	}
	sort.Slice(nd.sorted, func(i, j int) bool { return nd.sorted[i] < nd.sorted[j] })
	nFree := dec.length(1)
	if dec.err == nil && nFree != nils {
		dec.fail("%d free ids but %d empty slots", nFree, nils)
	}
	nd.free = make([]int, 0, nFree)
	seenFree := make(map[int]bool, nFree)
	for i := 0; i < nFree && dec.err == nil; i++ {
		id := dec.num()
		if id < 0 || id >= len(nd.data) || nd.data[id] != nil || seenFree[id] {
			dec.fail("bad free slot %d", id)
			break
		}
		seenFree[id] = true
		nd.free = append(nd.free, id)
	}

	// Partition window.
	n = dec.length(3)
	nd.window = make([]fsample, n)
	for i := 0; i < n; i++ {
		nd.window[i] = fsample{time: dec.i64(), datum: dec.num(), page: dec.num()}
	}

	// Pending events.
	n = dec.length(4)
	if dec.err == nil && n > nd.cfg.MaxPending {
		dec.fail("%d pending events exceed cap %d", n, nd.cfg.MaxPending)
	}
	nd.events = make([]phase.Event, 0, n)
	for i := 0; i < n && dec.err == nil; i++ {
		k := dec.num()
		if k != int(phase.BoundaryDetected) && k != int(phase.PhasePredicted) {
			dec.fail("bad event kind %d", k)
			break
		}
		nd.events = append(nd.events, phase.Event{
			Kind:         phase.Kind(k),
			Time:         dec.i64(),
			Instructions: dec.i64(),
			Phase:        dec.num(),
		})
	}

	// Hierarchy.
	h := &hierarchy{cfg: nd.cfg, memo: newHierarchyMemo(nd.cfg), curSeg: make(map[int]struct{})}
	n = dec.length(1)
	h.tail = make([]int, 0, n)
	for i := 0; i < n && dec.err == nil; i++ {
		p := dec.num()
		if p < 0 {
			dec.fail("negative phase id in tail")
			break
		}
		h.tail = append(h.tail, p)
	}
	h.grammarSize = dec.num()
	if dec.err == nil && h.grammarSize < 0 {
		dec.fail("negative grammar size")
	}
	h.restarts = dec.i64()
	h.truncated = dec.i64()
	if dec.err == nil && (h.restarts < 0 || h.truncated < 0) {
		dec.fail("negative hardening counter")
	}
	n = dec.length(1)
	if dec.err == nil && n > nd.cfg.MaxPhases {
		dec.fail("%d phases exceed cap %d", n, nd.cfg.MaxPhases)
	}
	h.known = make([]map[int]struct{}, 0, n)
	for i := 0; i < n && dec.err == nil; i++ {
		h.known = append(h.known, dec.intSet())
	}
	if dec.err == nil {
		for _, p := range h.tail {
			if p >= len(h.known) {
				dec.fail("tail phase %d unknown", p)
				break
			}
		}
	}
	h.curSeg = dec.intSet()

	var bst sequitur.BuilderState
	bst.NextID = dec.num()
	n = dec.length(2)
	bst.Rules = make([]sequitur.RuleState, 0, n)
	for i := 0; i < n && dec.err == nil; i++ {
		rs := sequitur.RuleState{ID: dec.num()}
		cnt := dec.length(2)
		rs.Body = make([]sequitur.Symbol, cnt)
		for j := 0; j < cnt; j++ {
			rs.Body[j] = sequitur.Symbol{Terminal: dec.flag(), Value: dec.num()}
		}
		bst.Rules = append(bst.Rules, rs)
	}
	n = dec.length(2)
	bst.Digrams = make([]sequitur.DigramState, 0, n)
	for i := 0; i < n && dec.err == nil; i++ {
		bst.Digrams = append(bst.Digrams, sequitur.DigramState{Rule: dec.num(), Pos: dec.num()})
	}
	if dec.err == nil {
		builder, err := sequitur.NewBuilderFromState(bst)
		if err != nil {
			dec.fail("grammar: %v", err)
		} else {
			h.builder = builder
		}
	}
	nd.hier = h

	if dec.err != nil {
		return dec.err
	}
	if dec.off != len(dec.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, len(dec.buf)-dec.off)
	}
	*d = *nd
	return nil
}
