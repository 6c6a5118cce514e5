// Package online detects locality phase boundaries incrementally from
// an unbounded event stream. The offline pipeline in internal/core is
// inherently two-pass — it zooms in and out over a complete recorded
// training trace — so it cannot serve long-running ingestion. This
// package re-derives each pipeline stage in a single-pass, bounded-
// memory form:
//
//   - reuse distances come from reuse.ApproxAnalyzer with an eviction
//     cap instead of the exact analyzer;
//   - variable-distance sampling applies the offline selection rule
//     (sampling.Selector, seeded with the offline thresholds) but paces
//     its thresholds against a target sample *rate* instead of an
//     expected trace length;
//   - the wavelet filter runs over a sliding window of each data
//     sample's recent sub-trace, deciding each sample once a fixed
//     number of newer samples exist (the same rule set as offline via
//     core.FilterSubTrace);
//   - optimal phase partitioning runs over a sliding window of
//     filtered samples, emitting only boundaries outside an unstable
//     margin near the window's leading edge;
//   - the phase hierarchy is fed incrementally into a SEQUITUR
//     grammar; at each boundary its next-phase automaton comes from a
//     bounded per-session memo (regexphase.Memo) that compiles only
//     hierarchy structure it has not seen, and the recent phase tail
//     walks it to predict the next phase.
//
// Every structure has a configurable cap, and under load the detector
// degrades by sampling (raising its analysis stride) instead of
// growing without bound.
package online

import (
	"lpp/internal/phase"
	"lpp/internal/phasedet"
	"lpp/internal/wavelet"
)

// Config bounds and tunes the streaming detector. The zero value takes
// the defaults below; every cap is a hard memory bound.
type Config struct {
	// Epsilon is the approximate reuse-distance precision (0 takes
	// 0.05, as offline).
	Epsilon float64
	// MaxLive caps distinct addresses tracked by the reuse analyzer;
	// older addresses are evicted and read cold on their next access.
	MaxLive int
	// MaxDataSamples caps the number of data samples followed.
	MaxDataSamples int
	// SubTraceWindow is the per-data-sample sliding window of recent
	// access samples the wavelet filter sees.
	SubTraceWindow int
	// FilterLag is how many newer samples of the same datum must
	// arrive before a sample's keep/drop decision is made.
	FilterLag int
	// MinSubTrace mirrors the offline noise rule: a datum's samples
	// are not decided until its window holds at least this many.
	MinSubTrace int
	// BoundaryWindow is the number of filtered samples accumulated
	// before a partitioning flush.
	BoundaryWindow int
	// BoundaryMargin is the number of trailing window samples whose
	// cuts are withheld as unstable (0 takes BoundaryWindow/4).
	BoundaryMargin int
	// MinBoundaryGap suppresses a detected boundary closer than this
	// many accesses to the previously accepted one. Jittery streams —
	// two tenants time-sliced at a fine quantum, drifting periods —
	// otherwise shatter one true boundary into a cluster of near-
	// duplicates, each minting a phase identity. 0 disables the guard
	// (the default: the paper's workloads need no suppression, and the
	// golden traces pin that).
	MinBoundaryGap int64
	// Alpha and MaxSpan parameterize phasedet.Partition as offline.
	Alpha   float64
	MaxSpan int
	// Wavelet is the filter family (default Daubechies-6).
	Wavelet wavelet.Family
	// KeepIrregular enables the Gcc extension of the sub-trace filter.
	KeepIrregular bool

	// TargetRate is the access-sample collection rate the feedback
	// loop aims for, in samples per access (default 0.05).
	TargetRate float64
	// CheckEvery is the feedback interval in accesses (default 10000).
	CheckEvery int64
	// DecideHorizon forces a sample's keep/drop decision once it is
	// this many accesses old, even if fewer than FilterLag newer
	// samples of its datum exist — otherwise a rarely-accessed datum
	// would hold its samples (and any boundary they mark) back
	// indefinitely. 0 takes 2x CheckEvery.
	DecideHorizon int64
	// StaleAfter is the age (in accesses since its last sample) past
	// which a data sample's slot is reclaimed for new data when the
	// MaxDataSamples cap is full — so a long-running stream whose
	// working set drifts keeps being covered. It must comfortably
	// exceed the longest recurrence interval worth tracking: a datum
	// sampled once per program phase (the Swim shape) is the most
	// informative kind, and reclaiming it between samples discards
	// its history. 0 takes 6x CheckEvery.
	StaleAfter int64

	// MaxGrammar caps the SEQUITUR grammar size; past it the grammar
	// restarts from the recent phase tail.
	MaxGrammar int
	// PhaseTail is how many recent phase IDs are retained to walk the
	// prediction automaton after a restart.
	PhaseTail int
	// MaxPhases caps distinct phase identities; past it new segments
	// are folded into their nearest known phase.
	MaxPhases int
	// Similarity is the minimum Jaccard similarity between segment
	// datum sets for two segments to share a phase ID (default 0.5).
	Similarity float64
	// MaxSignature caps the 64KB pages held in any phase signature
	// (known or open segment). An adversarial stream that touches new
	// pages forever would otherwise grow the open segment's set — the
	// one per-segment structure no other cap bounds — without limit;
	// past the cap new pages are dropped and counted (default 4096,
	// far above any of the paper's workloads: identity is unaffected
	// on well-behaved streams).
	MaxSignature int

	// MaxPending caps the buffered event queue when no OnEvent
	// callback is set; overflow drops the oldest events and counts
	// them in Stats.DroppedEvents.
	MaxPending int
	// MaxStride bounds how far load shedding may raise the analysis
	// stride (default 16; 1 disables shedding).
	MaxStride int

	// OnEvent, when non-nil, receives each phase.Event synchronously
	// instead of buffering it for DrainEvents.
	OnEvent func(phase.Event)
}

// DefaultConfig returns the streaming defaults.
func DefaultConfig() Config {
	return Config{
		Epsilon:        0.05,
		MaxLive:        1 << 16,
		MaxDataSamples: 512,
		SubTraceWindow: 48,
		FilterLag:      8,
		MinSubTrace:    4,
		BoundaryWindow: 256,
		Alpha:          phasedet.DefaultAlpha,
		MaxSpan:        4000,
		Wavelet:        wavelet.Daubechies6,
		TargetRate:     0.05,
		CheckEvery:     10000,
		MaxGrammar:     4096,
		PhaseTail:      512,
		MaxPhases:      64,
		Similarity:     0.5,
		MaxSignature:   4096,
		MaxPending:     1024,
		MaxStride:      16,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	def := DefaultConfig()
	if c.Epsilon <= 0 {
		c.Epsilon = def.Epsilon
	}
	if c.MaxLive <= 0 {
		c.MaxLive = def.MaxLive
	}
	if c.MaxDataSamples <= 0 {
		c.MaxDataSamples = def.MaxDataSamples
	}
	if c.SubTraceWindow <= 0 {
		c.SubTraceWindow = def.SubTraceWindow
	}
	if c.FilterLag <= 0 {
		c.FilterLag = def.FilterLag
	}
	if c.FilterLag >= c.SubTraceWindow {
		c.FilterLag = c.SubTraceWindow - 1
	}
	if c.MinSubTrace <= 0 {
		c.MinSubTrace = def.MinSubTrace
	}
	if c.BoundaryWindow <= 0 {
		c.BoundaryWindow = def.BoundaryWindow
	}
	if c.BoundaryMargin <= 0 {
		c.BoundaryMargin = c.BoundaryWindow / 4
	}
	if c.BoundaryMargin >= c.BoundaryWindow {
		c.BoundaryMargin = c.BoundaryWindow - 1
	}
	if c.Alpha == 0 {
		c.Alpha = def.Alpha
	}
	if c.MaxSpan <= 0 {
		c.MaxSpan = def.MaxSpan
	}
	if c.Wavelet == 0 {
		// The zero Family is Haar, but a zero Config means "defaults"
		// here, so it takes the paper's Daubechies-6.
		c.Wavelet = def.Wavelet
	}
	if c.TargetRate <= 0 {
		c.TargetRate = def.TargetRate
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = def.CheckEvery
	}
	if c.DecideHorizon <= 0 {
		c.DecideHorizon = 2 * c.CheckEvery
	}
	if c.StaleAfter <= 0 {
		c.StaleAfter = 6 * c.CheckEvery
	}
	if c.MaxGrammar <= 0 {
		c.MaxGrammar = def.MaxGrammar
	}
	if c.PhaseTail <= 0 {
		c.PhaseTail = def.PhaseTail
	}
	if c.MaxPhases <= 0 {
		c.MaxPhases = def.MaxPhases
	}
	if c.Similarity <= 0 {
		c.Similarity = def.Similarity
	}
	if c.MaxSignature <= 0 {
		c.MaxSignature = def.MaxSignature
	}
	if c.MinBoundaryGap < 0 {
		c.MinBoundaryGap = 0
	}
	if c.MaxPending <= 0 {
		c.MaxPending = def.MaxPending
	}
	if c.MaxStride <= 0 {
		c.MaxStride = def.MaxStride
	}
	return c
}
