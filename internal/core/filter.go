package core

import (
	"math"
	"slices"

	"lpp/internal/sampling"
	"lpp/internal/wavelet"
)

// FilterSubTrace decides which access samples of one data sample
// survive filtering. Four complementary rules, all aimed at the
// paper's goal — "the wavelet filtering removes reuses of the same
// data within a phase" so that "the remaining is mainly accesses to
// different data samples clustered at phase boundaries":
//
//  1. The paper's rule: keep accesses whose level-1 wavelet
//     coefficient magnitude exceeds m + 3δ. This isolates abrupt
//     jumps in sub-traces that otherwise drift gradually (the MolDyn
//     shape of Figure 2).
//
//  2. A bimodal-distance rule for strongly periodic programs: when a
//     sub-trace alternates between short within-phase reuses and long
//     boundary-crossing reuses (the Tomcatv shape of Figure 1), every
//     long reuse marks a phase change but none is a statistical
//     outlier among the coefficients. If the distances split cleanly
//     into two modes (largest log-space gap, upper mean ≥ 8× lower
//     mean), the upper mode is kept.
//
//  3. A flat-signal rule: every access sample exists because its
//     reuse distance exceeded the sampler's temporal threshold, so a
//     sub-trace whose distances are uniformly long and nearly equal
//     (low coefficient of variation) is one boundary crossing per
//     recurrence — e.g. a Swim element reused once per time step.
//     All its samples are kept.
//
//  4. (Extension, opt-in via Config.KeepIrregular — the Gcc extension
//     of Section 3.1.2.) A sub-trace that is irregular but untrended —
//     high coefficient of variation, near-zero lag-1 autocorrelation —
//     is one boundary crossing per recurrence with an input-dependent
//     period, like a token buffer reused once per compiled function.
//     All its samples are kept so the boundaries can be marked even
//     though their lengths will not be predictable.
func FilterSubTrace(dists []float64, fam wavelet.Family, keepIrregular bool) []bool {
	return NewSubTraceFilter(fam, keepIrregular).Filter(dists)
}

// SubTraceFilter is FilterSubTrace with reusable state, for front ends
// that filter many windows: the online detector applies it over a
// sliding window of each data sample's recent distances, so online and
// offline share one rule set. It derives the wavelet taps once, keeps
// its result and scratch buffers across calls, and sorts each window
// at most once, on first need — by the bimodal rule or by a caller's
// Sorted. A SubTraceFilter is not safe for concurrent use.
type SubTraceFilter struct {
	keepIrregular bool
	wave          *wavelet.Keeper
	all           []bool

	dists    []float64 // the window of the last Filter call
	sorted   []float64
	isSorted bool
}

// NewSubTraceFilter returns a filter with FilterSubTrace's rules for
// the family and irregular-signal setting.
func NewSubTraceFilter(fam wavelet.Family, keepIrregular bool) *SubTraceFilter {
	return &SubTraceFilter{keepIrregular: keepIrregular, wave: wavelet.NewKeeper(fam)}
}

// Filter returns FilterSubTrace(dists, fam, keepIrregular). The result
// is owned by the filter and valid until the next call; dists must not
// change while the result or Sorted is in use.
func (f *SubTraceFilter) Filter(dists []float64) []bool {
	f.dists, f.isSorted = dists, false
	if len(dists) >= 4 && coefVar(dists) < 0.25 {
		return f.keepAll(len(dists))
	}
	if f.keepIrregular && len(dists) >= 4 {
		if ac := lag1Autocorr(dists); ac < 0.3 && ac > -0.3 {
			return f.keepAll(len(dists))
		}
	}
	keep := f.wave.Keep(dists)
	if cut, ok := bimodalCut(f.Sorted()); ok && alternations(dists, cut) >= 4 {
		// Only an *alternating* bimodal signal means every long
		// reuse crosses a boundary. A single level shift (one
		// contiguous upper block) is an abrupt change whose jump
		// point the wavelet rule already isolates; keeping the
		// whole plateau would flood the partitioner with
		// recurrences.
		for i, d := range dists {
			if d >= cut {
				keep[i] = true
			}
		}
	}
	return keep
}

// Sorted returns the last filtered window in ascending order, sorting
// it on the first call after Filter. The result is owned by the filter.
func (f *SubTraceFilter) Sorted() []float64 {
	if !f.isSorted {
		f.sorted = append(f.sorted[:0], f.dists...)
		slices.Sort(f.sorted)
		f.isSorted = true
	}
	return f.sorted
}

func (f *SubTraceFilter) keepAll(n int) []bool {
	f.all = f.all[:0]
	for range n {
		f.all = append(f.all, true)
	}
	return f.all
}

// alternations counts how many times the signal crosses the mode
// threshold between consecutive samples.
func alternations(vals []float64, cut float64) int {
	n := 0
	for i := 1; i < len(vals); i++ {
		if (vals[i] >= cut) != (vals[i-1] >= cut) {
			n++
		}
	}
	return n
}

// bimodalCut finds a two-mode split of positive values given in
// ascending order: the largest gap between consecutive values in log
// space. It returns the smallest upper-mode value and true when the
// modes are well separated (upper mean at least 8× lower mean and at
// least a 4× jump at the gap).
func bimodalCut(sorted []float64) (float64, bool) {
	if len(sorted) < 4 || sorted[0] <= 0 {
		return 0, false
	}
	// Largest multiplicative gap.
	bestIdx, bestRatio := -1, 1.0
	for i := 0; i+1 < len(sorted); i++ {
		r := sorted[i+1] / sorted[i]
		if r > bestRatio {
			bestRatio, bestIdx = r, i
		}
	}
	if bestIdx < 0 || bestRatio < 4 {
		return 0, false
	}
	lower, upper := sorted[:bestIdx+1], sorted[bestIdx+1:]
	lm, um := mean(lower), mean(upper)
	if math.IsNaN(lm) || lm <= 0 || um < 8*lm {
		return 0, false
	}
	return upper[0], true
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// lag1Autocorr returns the lag-1 autocorrelation of xs (0 when the
// variance vanishes). Trended signals (gradual drift) score near 1;
// independent per-recurrence values score near 0.
func lag1Autocorr(xs []float64) float64 {
	m := mean(xs)
	var num, den float64
	for i := range xs {
		d := xs[i] - m
		den += d * d
		if i > 0 {
			num += (xs[i-1] - m) * d
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// coefVar returns the coefficient of variation (stddev/mean).
func coefVar(xs []float64) float64 {
	m := mean(xs)
	if m == 0 {
		return 0
	}
	var sq float64
	for _, x := range xs {
		d := x - m
		sq += d * d
	}
	return math.Sqrt(sq/float64(len(xs))) / m
}

// FilterSamples applies per-data-sample filtering (Section 2.2.2) and
// recompiles the survivors in time order, returning indices into
// res.Samples. Data samples with fewer than minSubTrace access samples
// are dropped as noise.
func FilterSamples(res sampling.Result, fam wavelet.Family, minSubTrace int) []int {
	return filterSamples(res, fam, minSubTrace, false, 1)
}

// FilterSamplesIrregular is FilterSamples with the Gcc extension of
// Section 3.1.2 enabled: untrended irregular sub-traces are kept whole
// so input-dependent phase boundaries can still be marked.
func FilterSamplesIrregular(res sampling.Result, fam wavelet.Family, minSubTrace int) []int {
	return filterSamples(res, fam, minSubTrace, true, 1)
}
