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
//     its thresholds against a target sample rate (TargetRate) instead
//     of an expected trace length;
//   - the wavelet filter (Wavelet) runs over a sliding window of each
//     data sample's recent sub-trace (SubTraceWindow), deciding each
//     sample once FilterLag newer samples exist (the same rule set as
//     offline via core.FilterSubTrace);
//   - optimal phase partitioning (Alpha, MaxSpan) runs over a sliding
//     window of filtered samples (BoundaryWindow), emitting only
//     boundaries outside an unstable margin (BoundaryMargin) near the
//     window's leading edge;
//   - the phase hierarchy identifies recurring segments by data
//     signature (Similarity) and feeds them incrementally into a
//     SEQUITUR grammar; at each boundary its next-phase automaton comes
//     from a bounded per-session memo (regexphase.Memo) that compiles
//     only hierarchy structure it has not seen, and the recent phase
//     tail walks it to predict the next phase.
//
// Every structure is capped, and under load the detector degrades by
// sampling (raising its analysis stride) instead of growing without
// bound. The detection parameters named above are package constants,
// fixed as the paper fixes its own; the caps, the feedback interval
// and the hardening controls are Config fields.
package online

import (
	"lpp/internal/phase"
	"lpp/internal/phasedet"
	"lpp/internal/wavelet"
)

// Detection parameters. Each one shapes detection, so each keeps its
// slot in the config fingerprint (Config.fingerprint).
const (
	// SubTraceWindow is the per-data-sample sliding window of recent
	// access samples the wavelet filter sees.
	SubTraceWindow = 48
	// FilterLag is how many newer samples of the same datum must
	// arrive before a sample's keep/drop decision is made.
	FilterLag = 8
	// MinSubTrace mirrors the offline noise rule: a datum's samples
	// are not decided until its window holds at least this many.
	MinSubTrace = 4
	// BoundaryWindow is the number of filtered samples accumulated
	// before a partitioning flush.
	BoundaryWindow = 256
	// BoundaryMargin is the number of trailing window samples whose
	// cuts are withheld as unstable.
	BoundaryMargin = BoundaryWindow / 4
	// Alpha and MaxSpan parameterize phasedet.Partition as offline.
	Alpha   = phasedet.DefaultAlpha
	MaxSpan = 4000
	// Wavelet is the sub-trace filter family, the paper's
	// Daubechies-6.
	Wavelet = wavelet.Daubechies6
	// TargetRate is the access-sample collection rate the feedback
	// loop aims for, in samples per access.
	TargetRate = 0.05
	// Similarity is the minimum Jaccard similarity between segment
	// datum sets for two segments to share a phase ID.
	Similarity = 0.5
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
	// MinBoundaryGap suppresses a detected boundary closer than this
	// many accesses to the previously accepted one. Jittery streams —
	// two tenants time-sliced at a fine quantum, drifting periods —
	// otherwise shatter one true boundary into a cluster of near-
	// duplicates, each minting a phase identity. 0 disables the guard
	// (the default: the paper's workloads need no suppression, and the
	// golden traces pin that).
	MinBoundaryGap int64
	// KeepIrregular enables the Gcc extension of the sub-trace filter.
	KeepIrregular bool

	// CheckEvery is the feedback interval in accesses (default 10000).
	// It also sets the decide horizon and the staleness age below.
	CheckEvery int64

	// MaxGrammar caps the SEQUITUR grammar size; past it the grammar
	// restarts from the recent phase tail.
	MaxGrammar int
	// PhaseTail is how many recent phase IDs are retained to walk the
	// prediction automaton after a restart.
	PhaseTail int
	// MaxPhases caps distinct phase identities; past it new segments
	// are folded into their nearest known phase.
	MaxPhases int
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

// decideHorizon is the age in accesses at which a sample's keep/drop
// decision is forced, even if fewer than FilterLag newer samples of
// its datum exist — otherwise a rarely-accessed datum would hold its
// samples (and any boundary they mark) back indefinitely.
func (c Config) decideHorizon() int64 { return 2 * c.CheckEvery }

// staleAfter is the age (in accesses since its last sample) past
// which a data sample's slot is reclaimed for new data when the
// MaxDataSamples cap is full — so a long-running stream whose working
// set drifts keeps being covered. It must comfortably exceed the
// longest recurrence interval worth tracking: a datum sampled once per
// program phase (the Swim shape) is the most informative kind, and
// reclaiming it between samples discards its history.
func (c Config) staleAfter() int64 { return 6 * c.CheckEvery }

// DefaultConfig returns the streaming defaults.
func DefaultConfig() Config {
	return Config{
		Epsilon:        0.05,
		MaxLive:        1 << 16,
		MaxDataSamples: 512,
		CheckEvery:     10000,
		MaxGrammar:     4096,
		PhaseTail:      512,
		MaxPhases:      64,
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
	if c.CheckEvery <= 0 {
		c.CheckEvery = def.CheckEvery
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
