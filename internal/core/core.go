// Package core assembles the complete locality-phase-prediction
// pipeline of the paper. Detect performs the off-line analysis on a
// training run: variable-distance sampling of the reuse-distance
// trace, wavelet filtering of each data sample's sub-trace, optimal
// phase partitioning, phase-marker selection from the block trace, and
// phase-hierarchy construction by SEQUITUR grammar compression.
// Predict performs the run-time side on a (usually much larger)
// production run: the marked program predicts each phase's length and
// locality from its first few executions.
package core

import (
	"fmt"
	"math"
	"runtime"

	"lpp/internal/marker"
	"lpp/internal/phasedet"
	"lpp/internal/regexphase"
	"lpp/internal/sampling"
	"lpp/internal/trace"
	"lpp/internal/wavelet"
)

// Config parameterizes the off-line analysis.
type Config struct {
	// Sampling configures variable-distance sampling; zero fields
	// take package defaults.
	Sampling sampling.Config
	// Wavelet is the filter family (the paper uses Daubechies-6).
	Wavelet wavelet.Family
	// Alpha is the recurrence penalty of optimal phase partitioning
	// (0 means the default 0.5).
	Alpha float64
	// MaxSpan bounds a phase's extent in filtered accesses; 0 means
	// a generous default.
	MaxSpan int
	// Marker configures phase-marker selection.
	Marker marker.Config
	// MinSubTrace is the minimum number of access samples a data
	// sample needs for its sub-trace to enter wavelet filtering;
	// sparser samples are dropped as noise (Section 2.2.1).
	MinSubTrace int
	// KeepIrregular enables the Gcc extension of Section 3.1.2:
	// untrended irregular sub-traces (one reuse per input-dependent
	// recurrence, like a token buffer reused once per compiled
	// function) are kept whole, so phase boundaries can be marked in
	// programs whose phase lengths cannot be predicted. The detected
	// phases are then typically flagged inconsistent.
	KeepIrregular bool
	// Workers bounds the worker pool Detect may use: it pipelines
	// trace generation with the exact reuse-distance analysis and fans
	// the per-data-sample wavelet filtering out across
	// min(Workers, GOMAXPROCS-equivalent) goroutines. 0 means
	// GOMAXPROCS; 1 forces Detect's strictly sequential path. The
	// predicted runs (Predict, PredictAll, PredictAllWith,
	// PredictStatistical) take no Config: they always pipeline the
	// marked run with its cache simulation. Every output is
	// bit-identical at every setting.
	Workers int
}

// workers resolves Config.Workers to a concrete pool size.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// DefaultConfig returns the paper's settings. The marker blank-region
// threshold is left zero so Detect can scale it to the training run
// (at least ~0.3% of the execution, capped at the paper's 10K
// instructions).
func DefaultConfig() Config {
	return Config{
		Wavelet:     wavelet.Daubechies6,
		Alpha:       phasedet.DefaultAlpha,
		MaxSpan:     4000,
		MinSubTrace: 4,
	}
}

// Detection is the product of the off-line analysis — everything the
// run-time side needs, plus the intermediate artifacts the experiments
// visualize.
type Detection struct {
	Config Config

	// Samples is the variable-distance sample trace (Figure 1 plots
	// its distances over time).
	Samples sampling.Result
	// Filtered holds indices into Samples.Samples that survived
	// wavelet filtering, in time order.
	Filtered []int
	// Boundaries are the detected phase-change times (logical time,
	// i.e. accesses from the start of the run).
	Boundaries []int64
	// Selection holds the chosen phase markers and the training
	// run's phase executions.
	Selection marker.Selection
	// PhaseSeq is the training run's phase-ID sequence.
	PhaseSeq []int
	// Hierarchy is the phase hierarchy as a regular expression over
	// phase IDs.
	Hierarchy regexphase.Expr
	// PhaseConsistent flags, per phase, whether its training-run
	// executions repeat consistently enough to predict. Programs
	// like Gcc have detectable phases (one per compiled function)
	// whose lengths are input-dependent; the paper "avoids behavior
	// prediction of inconsistent phases through a flag", which this
	// field implements. The run-time side declines predictions for
	// flagged phases.
	PhaseConsistent map[marker.PhaseID]bool

	// Training-run totals.
	Accesses     int64
	Instructions int64
}

// Detect runs the full off-line analysis over one training execution
// of prog. With more than one worker configured (the default resolves
// to GOMAXPROCS), trace generation is pipelined with the exact
// reuse-distance analysis: the workload streams its accesses to an
// analyzer goroutine in batches, so the analyzer — the expensive,
// strictly sequential part of sampling — never idles waiting for the
// full trace. The threshold/feedback half of sampling (which needs the
// final trace length for pacing) then replays the precomputed
// distances, making the result bit-identical to the sequential path.
func Detect(prog trace.Runner, cfg Config) (*Detection, error) {
	// Step 0: collect the training trace (ATOM's role).
	rec := trace.NewRecorder(1<<20, 1<<16)
	if cfg.workers() <= 1 {
		prog.Run(rec)
		return DetectTrace(&rec.T, cfg)
	}
	pipe := newDistPipeline()
	prog.Run(trace.Tee{rec, pipe})
	dists := pipe.Wait()
	cfg, scfg, err := normalizeConfig(&rec.T, cfg)
	if err != nil {
		return nil, err
	}
	res := sampling.RunTraceDists(rec.T.Accesses, dists, scfg)
	return finishDetection(&rec.T, cfg, res)
}

// DetectTrace runs the off-line analysis over an already-recorded
// training trace — e.g. one captured to a file with trace.Writer and
// replayed with trace.ReadFile.
func DetectTrace(t *trace.Recorded, cfg Config) (*Detection, error) {
	cfg, scfg, err := normalizeConfig(t, cfg)
	if err != nil {
		return nil, err
	}
	// Step 1: variable-distance sampling of the reuse trace.
	res := sampling.RunTrace(t.Accesses, scfg)
	return finishDetection(t, cfg, res)
}

// normalizeConfig fills config defaults that depend on the recorded
// trace and derives the sampling configuration. The feedback loop
// needs tens of checks over the run to steer the thresholds, whatever
// the trace length.
func normalizeConfig(t *trace.Recorded, cfg Config) (Config, sampling.Config, error) {
	def := DefaultConfig()
	if cfg.MaxSpan == 0 {
		cfg.MaxSpan = def.MaxSpan
	}
	if cfg.MinSubTrace == 0 {
		cfg.MinSubTrace = def.MinSubTrace
	}
	if len(t.Accesses) == 0 {
		return cfg, sampling.Config{}, fmt.Errorf("core: training run produced no accesses")
	}
	if cfg.Marker.BlankThreshold == 0 {
		// The paper requires a phase execution to consume at least
		// ~0.3% of the run, using 10K instructions for its
		// multi-million-access training runs; scale that rule to
		// the actual run length.
		th := int64(float64(t.Instructions) * 0.003)
		if th > 10000 {
			th = 10000
		}
		if th < 500 {
			th = 500
		}
		cfg.Marker.BlankThreshold = th
	}
	if cfg.Marker.FreqSlack == 0 {
		// The paper's cutoff is each phase's own execution count;
		// estimating it as boundaries+1 undercounts by the run's
		// edge executions (the first and last steps have no
		// boundary), so allow a modest slack.
		cfg.Marker.FreqSlack = 1.3
	}
	scfg := cfg.Sampling
	if scfg.ExpectedLength == 0 {
		scfg.ExpectedLength = int64(len(t.Accesses))
	}
	if scfg.CheckEvery == 0 {
		scfg.CheckEvery = scfg.ExpectedLength / 50
		if scfg.CheckEvery < 2000 {
			scfg.CheckEvery = 2000
		}
	}
	return cfg, scfg, nil
}

// finishDetection runs the trace-independent tail of the analysis —
// wavelet filtering, partitioning, marker selection, hierarchy,
// consistency — over a completed sampling result.
func finishDetection(t *trace.Recorded, cfg Config, res sampling.Result) (*Detection, error) {
	// Step 2: wavelet filtering of each data sample's sub-trace.
	filtered := filterSamplesWorkers(res, cfg.Wavelet, cfg.MinSubTrace, cfg.KeepIrregular, cfg.workers())

	// Step 3: optimal phase partitioning of the filtered trace.
	ids := make([]int, len(filtered))
	for i, si := range filtered {
		ids[i] = res.Samples[si].Data
	}
	cuts := phasedet.Partition(ids, phasedet.Config{Alpha: cfg.Alpha, MaxSpan: cfg.MaxSpan})
	boundaries := make([]int64, len(cuts))
	for i, c := range cuts {
		boundaries[i] = res.Samples[filtered[c]].Time
	}

	// Step 4: marker selection from the block trace, searching the
	// frequency cutoff for the selection that covers the most of the
	// run.
	sel, err := marker.SelectBest(t, boundaries, cfg.Marker)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// Step 5: hierarchy construction by grammar compression.
	seq := sel.PhaseSequence()
	hier := regexphase.BuildHierarchy(seq)

	// Step 6: consistency flags. A phase whose training executions
	// vary wildly in length (relative spread above ~0.5) is
	// input-dependent; predicting it would produce false
	// predictions, so the run-time side declines.
	consistent := phaseConsistency(sel, 0.5)

	return &Detection{
		Config:          cfg,
		Samples:         res,
		Filtered:        filtered,
		Boundaries:      boundaries,
		Selection:       sel,
		PhaseSeq:        seq,
		Hierarchy:       hier,
		PhaseConsistent: consistent,
		Accesses:        int64(len(t.Accesses)),
		Instructions:    t.Instructions,
	}, nil
}

// Consistent reports whether every detected phase repeats consistently
// — false for programs like Gcc and Vortex whose phase lengths depend
// on the input.
func (d *Detection) Consistent() bool {
	for _, ok := range d.PhaseConsistent {
		if !ok {
			return false
		}
	}
	return true
}

// phaseConsistency flags each phase whose training-run execution
// lengths have a coefficient of variation at most maxCV.
func phaseConsistency(sel marker.Selection, maxCV float64) map[marker.PhaseID]bool {
	type agg struct {
		n, sum, sumSq float64
	}
	per := make(map[marker.PhaseID]*agg)
	for _, r := range sel.Regions {
		a := per[r.Phase]
		if a == nil {
			a = &agg{}
			per[r.Phase] = a
		}
		l := float64(r.EndInstr - r.StartInstr)
		a.n++
		a.sum += l
		a.sumSq += l * l
	}
	out := make(map[marker.PhaseID]bool, len(per))
	for ph, a := range per {
		mean := a.sum / a.n
		variance := a.sumSq/a.n - mean*mean
		if variance < 0 {
			variance = 0
		}
		out[ph] = mean > 0 && math.Sqrt(variance)/mean <= maxCV
	}
	return out
}
