package online

import (
	"math"

	"lpp/internal/core"
	"lpp/internal/phase"
	"lpp/internal/reuse"
	"lpp/internal/sampling"
	"lpp/internal/trace"
)

// Stats is a snapshot of the detector's counters and memory gauges.
// Every gauge is bounded by Config, which is what the O(1)-memory test
// asserts.
type Stats struct {
	Accesses     int64
	Blocks       int64
	Instructions int64
	Samples      int64 // access samples collected
	Filtered     int64 // samples surviving the sliding-window filter
	Boundaries   int64
	Predictions  int64
	Adjustments  int // sampling threshold adjustments

	DataSamples     int // data samples tracked (gauge)
	TrackedAddrs    int // reuse analyzer live addresses (gauge)
	AnalyzerBuckets int // reuse analyzer buckets (gauge)
	WindowLen       int // filtered samples pending partition (gauge)
	GrammarSize     int // SEQUITUR grammar symbols (gauge)
	Phases          int // distinct phase identities (gauge)
	PendingEvents   int // buffered events awaiting drain (gauge)

	Stride        int   // current load-shedding stride (1 = no shedding)
	Shed          int64 // accesses skipped by load shedding
	DroppedEvents int64 // events lost to a full pending buffer

	// Hardening counters: boundaries rejected by the MinBoundaryGap
	// margin guard, grammar restarts forced by the MaxGrammar cap, and
	// signature pages dropped by the MaxSignature cap.
	SuppressedBoundaries int64
	GrammarRestarts      int64
	TruncatedPages       int64
	// LargestSignature is the page count of the biggest phase
	// signature, open segment included (gauge, bounded by MaxSignature).
	LargestSignature int
}

// datum is one tracked data sample and its sliding sub-trace window.
type datum struct {
	addr  trace.Addr
	times []int64
	dists []float64
	// undecided is the window index of the oldest sample whose
	// keep/drop decision has not been made yet.
	undecided int
	// older and newer are the neighbouring slots in the detector's
	// recency list (-1 at either end). A datum joins the list with its
	// first sample.
	older, newer int
}

// Detector consumes an instrumentation event stream and emits
// phase.Events as boundaries are detected. It implements
// trace.Instrumenter. It is not safe for concurrent use; give each
// session its own Detector.
type Detector struct {
	cfg      Config
	analyzer *reuse.ApproxAnalyzer

	now    int64 // logical time: accesses seen (including shed ones)
	blocks int64
	instrs int64

	// Sampling state: the selection rule shared with offline sampling
	// (thresholds, spatial set, datum address -> slot in data), held by
	// value so the per-access path takes no extra pointer hop.
	sel              sampling.Selector
	data             []*datum
	free             []int // reclaimed datum slots awaiting reuse
	samples          int64
	lastCheck        int64
	lastCheckSamples int64
	adjustments      int

	// oldest and newest are the ends of the recency list, threaded
	// through the tracked datums in order of last sample time (-1 when
	// empty). Sample times strictly increase, so moving a sampled
	// datum to the newest end keeps the order.
	oldest, newest int

	evictRetry int64 // next time claimSlot may look for a stale datum
	deferFlush bool  // suppress window flushes during Flush's decision loop

	// Load shedding.
	stride   int
	strideAt int64 // accesses since last analyzed one
	shed     int64

	// Boundary window (see hierarchy.go for the flush).
	window       []fsample
	filtered     int64
	lastBoundary int64
	segStart     int64
	suppressed   int64 // boundaries rejected by the MinBoundaryGap guard

	// Phase identity + hierarchy (hierarchy.go).
	hier *hierarchy

	// filter is the shared sub-trace filter; mask is its verdict on
	// maskFor's current window, reused by every decision on that
	// window until the window changes (recordSample clears maskFor).
	filter  *core.SubTraceFilter
	mask    []bool
	maskFor *datum

	// Output.
	events        []phase.Event
	boundaries    int64
	predictions   int64
	droppedEvents int64
}

// fsample is one filtered (kept) access sample pending partitioning.
type fsample struct {
	time  int64
	datum int // partition ID: the datum's address
	page  int // identity ID: address at 64KB granularity
}

// NewDetector returns a streaming detector; zero Config fields take
// defaults.
func NewDetector(cfg Config) *Detector {
	cfg = cfg.withDefaults()
	return &Detector{
		cfg:      cfg,
		analyzer: reuse.NewApproxAnalyzer(cfg.Epsilon),
		sel:      newSelector(cfg),
		oldest:   -1,
		newest:   -1,
		stride:   1,
		hier:     newHierarchy(cfg),
		filter:   core.NewSubTraceFilter(Wavelet, cfg.KeepIrregular),
	}
}

// newSelector returns the sampling rule seeded with the offline
// thresholds. Its datum index is sized to stay at most 1/8 full at the
// MaxDataSamples cap: a miss, the common case, then averages ~1.15
// probes, where at 1/2 load it would average 2.5. At the default cap
// of 512 that is 4096 slots (64 KB) per detector, small beside the
// analyzer's index.
func newSelector(cfg Config) sampling.Selector {
	return sampling.NewSelector(sampling.DefaultConfig(), 4*cfg.MaxDataSamples)
}

// Block implements trace.Instrumenter.
func (d *Detector) Block(_ trace.BlockID, instrs int) {
	d.blocks++
	d.instrs += int64(instrs)
}

// Access implements trace.Instrumenter: it advances logical time and
// runs the single-pass analysis on this reference. It is the fused
// per-reference loop body (step in batch.go), so the per-event and
// batched paths share one implementation.
func (d *Detector) Access(addr trace.Addr) {
	d.step(addr)
}

// sample runs the post-analyzer half of a step — variable-distance
// sampling and the threshold feedback loop — on one reference whose
// reuse distance is already known.
func (d *Detector) sample(t int64, addr trace.Addr, dist int64) {
	switch id, v := d.sel.Select(addr, dist); v {
	case sampling.Record:
		d.recordSample(id, t, dist)
	case sampling.Admit:
		if id, ok := d.claimSlot(); ok {
			d.sel.Add(addr, id)
			d.data[id] = &datum{addr: addr}
			d.recordSample(id, t, dist)
		}
	}

	if d.now-d.lastCheck >= d.cfg.CheckEvery {
		d.feedback()
	}
}

// SetPressure tells the detector how loaded its consumer is, as a
// fraction in [0, 1]. Pressure maps linearly onto the analysis stride
// up to MaxStride: at 0 every access is analyzed, at 1 only every
// MaxStride-th. This is the graceful-degradation knob the server pulls
// when a session's queue fills.
func (d *Detector) SetPressure(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	stride := 1 + int(p*float64(d.cfg.MaxStride-1)+0.5)
	if stride < 1 {
		stride = 1
	}
	if stride > d.cfg.MaxStride {
		stride = d.cfg.MaxStride
	}
	d.stride = stride
}

// recordSample appends an access sample to its datum's sliding window
// and decides any samples that now have FilterLag newer successors.
func (d *Detector) recordSample(id int, t, dist int64) {
	d.samples++
	dt := d.data[id]
	if d.newest != id {
		if len(dt.times) > 0 {
			d.unlink(id)
		}
		d.pushNewest(id)
	}
	if len(dt.times) == SubTraceWindow {
		// Window full: the oldest sample falls off. If it was never
		// decided (tiny windows only), decide it first.
		if dt.undecided == 0 {
			d.decide(dt, 0)
			dt.undecided = 1
		}
		copy(dt.times, dt.times[1:])
		copy(dt.dists, dt.dists[1:])
		dt.times = dt.times[:len(dt.times)-1]
		dt.dists = dt.dists[:len(dt.dists)-1]
		dt.undecided--
	}
	dt.times = append(dt.times, t)
	dt.dists = append(dt.dists, dist2f(dist))
	if d.maskFor == dt {
		d.maskFor = nil
	}
	if len(dt.times) < MinSubTrace {
		return
	}
	for dt.undecided <= len(dt.times)-1-FilterLag {
		d.decide(dt, dt.undecided)
		dt.undecided++
	}
}

// claimSlot returns a datum slot for a new data sample: a fresh one
// below the cap, a reclaimed stale one, or — when demand outruns the
// periodic reclamation — the slot of the stalest tracked datum. The
// age-based sweep alone resonates badly with phase lengths near
// staleAfter: slot availability drifts relative to phase starts until
// some phase finds the table full of just-young-enough datums and goes
// entirely unsampled. When no datum is old enough, claims wait
// CheckEvery accesses before looking again.
func (d *Detector) claimSlot() (int, bool) {
	if len(d.data) < d.cfg.MaxDataSamples {
		d.data = append(d.data, nil)
		return len(d.data) - 1, true
	}
	if n := len(d.free); n > 0 {
		id := d.free[n-1]
		d.free = d.free[:n-1]
		return id, true
	}
	if d.now >= d.evictRetry {
		if id, ok := d.evictStalest(d.cfg.staleAfter() / 2); ok {
			return id, true
		}
		// Nothing old enough: stop looking until the table ages.
		d.evictRetry = d.now + d.cfg.CheckEvery
	}
	return 0, false
}

// evictStalest releases the slot of the stalest eligible datum (oldest
// last sample among those the stale test allows), finalizing its
// undecided samples first, as in the periodic reclamation. It walks
// the recency list from the oldest end and stops at the first datum
// the stale test accepts, or at the first one idle for less than
// minAge.
func (d *Detector) evictStalest(minAge int64) (int, bool) {
	for id := d.oldest; id >= 0; id = d.data[id].newer {
		dt := d.data[id]
		if d.now-dt.times[len(dt.times)-1] < minAge {
			break // every newer datum is younger still
		}
		if d.stale(dt, minAge) {
			d.dropDatum(id)
			return id, true
		}
	}
	return 0, false
}

// pushNewest links slot id, not in the recency list, at its newest end.
func (d *Detector) pushNewest(id int) {
	dt := d.data[id]
	dt.older, dt.newer = d.newest, -1
	if d.newest >= 0 {
		d.data[d.newest].newer = id
	} else {
		d.oldest = id
	}
	d.newest = id
}

// unlink removes slot id from the recency list.
func (d *Detector) unlink(id int) {
	dt := d.data[id]
	if dt.older >= 0 {
		d.data[dt.older].newer = dt.newer
	} else {
		d.oldest = dt.newer
	}
	if dt.newer >= 0 {
		d.data[dt.newer].older = dt.older
	} else {
		d.newest = dt.older
	}
}

// decide runs the shared sub-trace filter over the datum's current
// window and finalizes the sample at index i: kept samples enter the
// boundary window. Downstream IDs derive from the address, not the
// slot, so slot reclamation cannot alias two data samples: the
// partition ID is the datum's own address (offline uses one ID per
// data sample; any coarser granule aliases nearby datums into false
// recurrences and oversegments), phase identity uses 64KB regions.
func (d *Detector) decide(dt *datum, i int) {
	if d.maskFor != dt {
		d.mask = d.filter.Filter(dt.dists)
		d.maskFor = dt
	}
	if !d.mask[i] && !spikeOverFlat(d.filter, dt.dists, i) {
		return
	}
	d.filtered++
	d.window = append(d.window, fsample{
		time:  dt.times[i],
		datum: int(dt.addr),
		page:  int(dt.addr >> 16),
	})
	if len(d.window) >= BoundaryWindow && !d.deferFlush {
		d.flushBoundaries(false)
	}
}

// Flush finalizes all pending decisions and partitions the remaining
// window with no stability margin. Call it at end of stream; the
// detector stays usable afterwards (e.g. for periodic flushes on an
// idle but open session).
func (d *Detector) Flush() {
	// Intermediate window flushes are deferred: the loop below decides
	// datums in slot order, not time order, and a window-full flush
	// mid-loop could emit a late cut before an earlier datum's samples
	// are decided — the boundary monotonicity check would then
	// suppress every earlier cut. The transient window growth is
	// bounded by MaxDataSamples x SubTraceWindow.
	d.deferFlush = true
	for _, dt := range d.data {
		if dt == nil || len(dt.times) < MinSubTrace {
			continue // offline noise rule: too sparse to trust
		}
		for dt.undecided < len(dt.times) {
			d.decide(dt, dt.undecided)
			dt.undecided++
		}
	}
	d.deferFlush = false
	d.flushBoundaries(true)
}

// DrainEvents returns the buffered events and clears the buffer. When
// Config.OnEvent is set there is nothing to drain.
func (d *Detector) DrainEvents() []phase.Event {
	ev := d.events
	d.events = nil
	return ev
}

// Stats snapshots the detector's counters and gauges.
func (d *Detector) Stats() Stats {
	return Stats{
		Accesses:        d.now,
		Blocks:          d.blocks,
		Instructions:    d.instrs,
		Samples:         d.samples,
		Filtered:        d.filtered,
		Boundaries:      d.boundaries,
		Predictions:     d.predictions,
		Adjustments:     d.adjustments,
		DataSamples:     len(d.data) - len(d.free),
		TrackedAddrs:    d.analyzer.Distinct(),
		AnalyzerBuckets: d.analyzer.Buckets(),
		WindowLen:       len(d.window),
		GrammarSize:     d.hier.grammarSize,
		Phases:          len(d.hier.known),
		PendingEvents:   len(d.events),
		Stride:          d.stride,
		Shed:            d.shed,
		DroppedEvents:   d.droppedEvents,

		SuppressedBoundaries: d.suppressed,
		GrammarRestarts:      d.hier.restarts,
		TruncatedPages:       d.hier.truncated,
		LargestSignature:     d.hier.largestSignature(),
	}
}

// emit delivers one event via the callback or the bounded buffer.
func (d *Detector) emit(ev phase.Event) {
	if d.cfg.OnEvent != nil {
		d.cfg.OnEvent(ev)
		return
	}
	if len(d.events) >= d.cfg.MaxPending {
		// Drop the oldest: recent boundaries matter more to a live
		// consumer than stale ones.
		n := copy(d.events, d.events[1:])
		d.events = d.events[:n]
		d.droppedEvents++
	}
	d.events = append(d.events, ev)
}

// feedback adapts the sampling thresholds toward the target rate,
// measured over the interval since the last check — the streaming
// analog of offline sampling's whole-run pacing.
func (d *Detector) feedback() {
	interval := d.now - d.lastCheck
	d.lastCheck = d.now
	d.forceDecisions()
	d.reclaimStale()
	got := float64(d.samples - d.lastCheckSamples)
	d.lastCheckSamples = d.samples
	expected := TargetRate * float64(interval)
	// Adjustments are symmetric and capped at 4x per check: sampling
	// bursts are common (a recurring phase re-qualifies all its data
	// at once), and overshooting the clamp-down would blind the
	// detector for many checks while the thresholds decay back.
	s := &d.sel
	switch {
	case got > 1.5*expected:
		s.Raise(got, expected, 4)
		d.adjustments++
	case got < 0.25*expected && s.Qual > 16:
		factor := int64(2)
		if got > 0 {
			factor = min(max(int64(expected/got), 2), 4)
		}
		s.Qual = max(s.Qual/factor, 16)
		s.Temporal = max(s.Temporal/factor, 16)
		if s.Spatial > 64 {
			s.Spatial /= 2
		}
		d.adjustments++
	}
}

// forceDecisions finalizes samples older than the decide horizon even
// without FilterLag newer samples of their datum: a datum its phase
// stopped touching would otherwise hold its boundary-marking samples
// back until the phase returns.
func (d *Detector) forceDecisions() {
	horizon := d.now - d.cfg.decideHorizon()
	for _, dt := range d.data {
		if dt == nil || len(dt.times) < MinSubTrace {
			continue
		}
		for dt.undecided < len(dt.times) && dt.times[dt.undecided] < horizon {
			d.decide(dt, dt.undecided)
			dt.undecided++
		}
	}
}

// reclaimStale frees the slots of data samples not sampled for
// staleAfter accesses once the cap is reached, so coverage follows a
// drifting working set instead of freezing on the first data seen.
func (d *Detector) reclaimStale() {
	if len(d.data) < d.cfg.MaxDataSamples {
		return
	}
	for id, dt := range d.data {
		if dt == nil || !d.stale(dt, d.cfg.staleAfter()) {
			continue
		}
		d.dropDatum(id)
		d.free = append(d.free, id)
	}
}

// stale reports whether a datum's slot is reclaimable: idle for at
// least minAge since its last sample, and not merely between
// recurrences — a datum sampled on a long regular period (the Swim
// shape: one reuse per time step) is idle most of its life yet is the
// most phase-informative kind, so a datum whose idle time is within
// twice its own observed inter-sample gap is still waiting, not dead.
func (d *Detector) stale(dt *datum, minAge int64) bool {
	n := len(dt.times)
	if n == 0 {
		return true
	}
	idle := d.now - dt.times[n-1]
	if idle < minAge {
		return false
	}
	if n >= 2 {
		period := (dt.times[n-1] - dt.times[0]) / int64(n-1)
		if idle <= 2*period {
			return false
		}
	}
	return true
}

// dropDatum finalizes a datum's remaining sample decisions and clears
// its slot (the caller decides whether the slot goes on the free list
// or is handed straight to a new claimant).
func (d *Detector) dropDatum(id int) {
	dt := d.data[id]
	if len(dt.times) >= MinSubTrace {
		for dt.undecided < len(dt.times) {
			d.decide(dt, dt.undecided)
			dt.undecided++
		}
	}
	d.sel.Remove(dt.addr)
	d.unlink(id)
	d.data[id] = nil
}

// spikeOverFlat supplements the shared offline filter for short
// sliding windows. A reclaimed datum re-qualifies on its first
// boundary-crossing reuse, so its window is one large spike over an
// otherwise flat signal. Each piece passes an offline rule on its own
// — the spike is the bimodal upper mode, the flat remainder is the
// flat-signal shape — but the mixture defeats both: one spike cannot
// alternate, and it inflates the whole window's variation. Keep sample
// i when it is such a spike (>= 8x the window median, the offline
// bimodal separation) or part of a flat remainder under the spike.
// The window median comes from f, which last filtered dists.
func spikeOverFlat(f *core.SubTraceFilter, dists []float64, i int) bool {
	if len(dists) < 4 {
		return false
	}
	sorted := f.Sorted()
	med := sorted[len(sorted)/2]
	if med <= 0 {
		return false
	}
	cut := 8 * med
	if dists[i] >= cut {
		return true
	}
	// Flat remainder, only in the re-qualification shape: the spike is
	// the window's first sample (the qualifying access) and the sole
	// one above the cut. A spike elsewhere is ordinary alternation,
	// which the offline rules already judge; keeping its neighbors too
	// would oversegment periodic programs.
	if dists[0] < cut {
		return false
	}
	n, sum := 0, 0.0
	for _, v := range dists {
		if v < cut {
			n++
			sum += v
		}
	}
	if n != len(dists)-1 || n < 4 {
		return false
	}
	mean := sum / float64(n)
	if mean <= 0 {
		return false
	}
	varsum := 0.0
	for _, v := range dists {
		if v < cut {
			dv := v - mean
			varsum += dv * dv
		}
	}
	return math.Sqrt(varsum/float64(n))/mean < 0.25
}

// dist2f converts a reuse distance to the filter's float signal.
func dist2f(d int64) float64 { return float64(d) }
