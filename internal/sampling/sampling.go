// Package sampling implements the variable-distance sampling of
// Section 2.2.1. Instead of analyzing all accesses to all data, the
// sampler watches the reuse distance of every access and keeps a small
// set of representative data samples and their long-distance access
// samples. The three thresholds of Ding and Zhong's distance-based
// sampling [12] — qualification, temporal, and spatial — are hard to
// pick by hand, so this sampler adjusts them by dynamic feedback
// toward a target sample count. The selection rule itself (Selector)
// is shared with the streaming detector, which paces it differently.
package sampling

import (
	"lpp/internal/reuse"
	"lpp/internal/trace"
)

// Config controls the sampler.
type Config struct {
	// TargetSamples is the access-sample budget the feedback loop
	// aims for (the paper collects 15–30 thousand).
	TargetSamples int
	// Qualification is the initial reuse distance (in distinct
	// elements) an access must exceed for its datum to become a data
	// sample.
	Qualification int64
	// Temporal is the initial reuse distance an access to a data
	// sample must exceed to be recorded as an access sample.
	Temporal int64
	// Spatial is the initial minimum address separation (bytes)
	// between data samples.
	Spatial int64
	// CheckEvery is the feedback interval in accesses.
	CheckEvery int64
	// ExpectedLength is the anticipated trace length used to pace
	// the feedback; zero or less takes the length of the sampled
	// stream.
	ExpectedLength int64
}

// DefaultConfig returns the settings used throughout the evaluation.
// Its thresholds also seed the streaming detector's sampler.
func DefaultConfig() Config {
	return Config{
		TargetSamples: 20000,
		Qualification: 512,
		Temporal:      512,
		Spatial:       1024,
		CheckEvery:    100000,
	}
}

// Sample is one recorded access sample.
type Sample struct {
	// Time is the logical time (index in the data-access stream).
	Time int64
	// Data identifies the data sample accessed (index into
	// Result.DataAddrs).
	Data int
	// Dist is the access's reuse distance.
	Dist int64
}

// Result is the product of a sampling pass.
type Result struct {
	Samples     []Sample
	DataAddrs   []trace.Addr // data-sample ID -> address
	Adjustments int          // threshold adjustments performed
	Accesses    int64        // accesses processed
}

// SubTraces groups sample indices by data sample, preserving time
// order within each group.
func (r *Result) SubTraces() [][]int {
	out := make([][]int, len(r.DataAddrs))
	for i, s := range r.Samples {
		out[s.Data] = append(out[s.Data], i)
	}
	return out
}

// sampler is the offline pacing around the shared Selector. It paces
// against a whole-run budget: the sample count expected by now is
// TargetSamples scaled by the share of ExpectedLength seen, overshoot
// raises the thresholds by up to 16x, undershoot halves them, and
// samples over twice the budget are decimated. Data-sample IDs are
// assigned in admission order.
type sampler struct {
	cfg Config
	sel Selector
	now int64

	dataAddrs   []trace.Addr
	samples     []Sample
	adjustments int
	lastCheck   int64
}

// newSampler returns a sampler for a stream of length accesses; zero
// Config fields take defaults, and a non-positive ExpectedLength takes
// length.
func newSampler(cfg Config, length int) *sampler {
	def := DefaultConfig()
	if cfg.TargetSamples <= 0 {
		cfg.TargetSamples = def.TargetSamples
	}
	if cfg.Qualification <= 0 {
		cfg.Qualification = def.Qualification
	}
	if cfg.Temporal <= 0 {
		cfg.Temporal = def.Temporal
	}
	if cfg.Spatial <= 0 {
		cfg.Spatial = def.Spatial
	}
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = def.CheckEvery
	}
	if cfg.ExpectedLength <= 0 {
		cfg.ExpectedLength = int64(length)
	}
	// Data samples peak at 3,503 (swim Train) against the default
	// budget of 20,000, so an index sized for the budget stays sparse.
	return &sampler{cfg: cfg, sel: NewSelector(cfg, cfg.TargetSamples)}
}

// access feeds one data access whose reuse distance is dist.
func (s *sampler) access(addr trace.Addr, dist int64) {
	t := s.now
	s.now++
	if dist == reuse.Infinite {
		// A cold access advances time only: it is never sampled,
		// and the feedback check waits for the next warm access.
		return
	}
	switch id, v := s.sel.Select(addr, dist); v {
	case Record:
		s.samples = append(s.samples, Sample{Time: t, Data: id, Dist: dist})
	case Admit:
		id := len(s.dataAddrs)
		s.sel.Add(addr, id)
		s.dataAddrs = append(s.dataAddrs, addr)
		s.samples = append(s.samples, Sample{Time: t, Data: id, Dist: dist})
	}
	if s.now-s.lastCheck >= s.cfg.CheckEvery {
		s.lastCheck = s.now
		s.feedback()
	}
}

// feedback compares the sample count against the whole-run pace and
// adjusts the thresholds: collecting too fast raises them, collecting
// too slowly halves them.
func (s *sampler) feedback() {
	expected := float64(s.cfg.TargetSamples) * float64(s.now) / float64(s.cfg.ExpectedLength)
	got := float64(len(s.samples))
	switch {
	case got > 1.5*expected:
		s.sel.Raise(got, expected, 16)
		s.adjustments++
	case got < 0.25*expected && s.sel.Qual > 16:
		s.sel.Qual /= 2
		s.sel.Temporal /= 2
		if s.sel.Spatial > 64 {
			s.sel.Spatial /= 2
		}
		s.adjustments++
	}
	// Off-line sampling can also shed what it over-collected before
	// the thresholds caught up: decimate to stay near the budget.
	for len(s.samples) > 2*s.cfg.TargetSamples {
		kept := s.samples[:0]
		for i, smp := range s.samples {
			if i%2 == 0 {
				kept = append(kept, smp)
			}
		}
		s.samples = kept
		s.adjustments++
	}
}

// result freezes the sampler's collected samples.
func (s *sampler) result() Result {
	return Result{
		Samples:     s.samples,
		DataAddrs:   s.dataAddrs,
		Adjustments: s.adjustments,
		Accesses:    s.now,
	}
}

// RunTrace samples a recorded access stream, measuring each access's
// exact reuse distance as it goes.
func RunTrace(accesses []trace.Addr, cfg Config) Result {
	s := newSampler(cfg, len(accesses))
	an := reuse.NewAnalyzer()
	for i, a := range accesses {
		if j := i + prefetchAhead; j < len(accesses) {
			an.Prefetch(accesses[j])
		}
		s.access(a, an.Access(a))
	}
	return s.result()
}

// prefetchAhead is how many accesses ahead RunTrace prefetches: far
// enough that the load lands before Access probes the slot, near enough
// that it is not evicted again first.
const prefetchAhead = 8

// RunTraceSplit is RunTrace with the exact reuse-distance pass split
// across up to workers analyzers (reuse.SplitDistances), bit-identical
// to it. The feedback pacing needs only the trace length, known from
// the start, so the sampler replays each run of distances as soon as
// it is final, on the caller's goroutine, and trails the analyzers
// instead of waiting for them.
func RunTraceSplit(accesses []trace.Addr, workers int, cfg Config) Result {
	s := newSampler(cfg, len(accesses))
	reuse.SplitDistances(accesses, workers, func(lo int, dists []int64) {
		for i, dist := range dists {
			s.access(accesses[lo+i], dist)
		}
	})
	return s.result()
}
