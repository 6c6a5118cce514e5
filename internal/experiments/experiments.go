// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 3) from this repository's own substrates.
// Each experiment is a named function that writes a human-readable
// report and, when an output directory is configured, CSV artifacts
// for plotting. Absolute numbers differ from the paper — the substrate
// is a simulator and the workloads are scaled-down reconstructions —
// but each report states the shape the paper found so the reader can
// check it against the regenerated data.
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"lpp/internal/core"
	"lpp/internal/marker"
	"lpp/internal/predictor"
	"lpp/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	// W receives the report (defaults to os.Stdout).
	W io.Writer
	// Quick shrinks workloads so the whole suite runs in seconds —
	// used by tests and benchmarks; full-size runs are the default.
	Quick bool
	// OutDir, when non-empty, receives CSV artifacts.
	OutDir string
	// Cache, when non-nil, memoizes per-workload analyses so each
	// workload's training trace is replayed once per report run and
	// shared by every table and figure (see NewCache).
	Cache *Cache
}

func (o Options) out() io.Writer {
	if o.W == nil {
		return os.Stdout
	}
	return o.W
}

// csv writes rows to OutDir/name if OutDir is set.
func (o Options) csv(name string, header string, rows []string) error {
	if o.OutDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(o.OutDir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintln(f, header); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintln(f, r); err != nil {
			return err
		}
	}
	return nil
}

// svg writes an SVG artifact to OutDir/name if OutDir is set.
func (o Options) svg(name string, render func(io.Writer) error) error {
	if o.OutDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(o.OutDir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return render(f)
}

// params returns the training and prediction parameters for a
// benchmark, shrunk in Quick mode.
func (o Options) params(spec workload.Spec) (train, ref workload.Params) {
	train, ref = spec.Train, spec.Ref
	if !o.Quick {
		return train, ref
	}
	shrink := func(p workload.Params) workload.Params {
		switch spec.Name {
		case "tomcatv", "swim":
			p.N = min(p.N, 48)
			p.Steps = min(p.Steps, 6)
		case "applu":
			p.N = min(p.N, 14)
			p.Steps = min(p.Steps, 5)
		case "fft":
			p.N = min(p.N, 1<<9)
			p.Steps = min(p.Steps, 6)
		case "compress", "vortex":
			p.N = min(p.N, 1<<13)
			p.Steps = min(p.Steps, 5)
		case "gcc":
			p.N = min(p.N, 30)
			p.Steps = min(p.Steps, 20)
		case "mesh":
			p.N = min(p.N, 1<<11)
			p.Steps = min(p.Steps, 6)
		case "moldyn":
			p.N = min(p.N, 200)
			p.Steps = min(p.Steps, 6)
		}
		return p
	}
	return shrink(train), shrink(ref)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// analysis bundles the off-line and run-time results for one
// benchmark.
type analysis struct {
	spec    workload.Spec
	train   workload.Params
	ref     workload.Params
	det     *core.Detection
	strict  *core.RunReport
	relaxed *core.RunReport
}

// analyze runs detection on the training input and prediction (both
// policies, one pass) on the reference input. With a Cache configured,
// the result is memoized per workload, so each training trace is
// replayed once per report run no matter how many tables and figures
// ask for it.
func (o Options) analyze(spec workload.Spec) (*analysis, error) {
	if o.Cache != nil {
		return o.Cache.get(spec, func() (*analysis, error) { return o.analyzeUncached(spec) })
	}
	return o.analyzeUncached(spec)
}

func (o Options) analyzeUncached(spec workload.Spec) (*analysis, error) {
	train, ref := o.params(spec)
	det, err := core.Detect(spec.Make(train), core.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("%s: detect: %w", spec.Name, err)
	}
	reports := core.PredictAll(spec.Make(ref), det, predictor.Strict, predictor.Relaxed)
	return &analysis{
		spec: spec, train: train, ref: ref,
		det: det, strict: reports[0], relaxed: reports[1],
	}, nil
}

// Experiment is a named, runnable experiment.
type Experiment struct {
	Name  string
	Title string
	Run   func(Options) error
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table 1: benchmark suite", Table1},
		{"fig1", "Figure 1: reuse-distance trace of Tomcatv", Fig1},
		{"fig2", "Figure 2: wavelet filtering of a MolDyn data sample", Fig2},
		{"fig3", "Figure 3: phase vs interval vs BBV locality (Tomcatv, Compress)", Fig3},
		{"table2", "Table 2: accuracy and coverage of phase prediction", Table2},
		{"table3", "Table 3: number and size of phases", Table3},
		{"table4", "Table 4: locality standard deviation, phase vs BBV", Table4},
		{"fig4", "Figure 4: Compress phase miss rates on a noisy machine", Fig4},
		{"fig5", "Figure 5: sampled reuse traces of Gcc and Vortex", Fig5},
		{"fig6", "Figure 6: adaptive cache resizing, phase vs interval vs BBV", Fig6},
		{"table5", "Table 5: phase-based array regrouping", Table5},
		{"table6", "Table 6: overlap with manual phase markers", Table6},
	}
}

// Extensions returns the experiments that go beyond the paper's
// evaluation: the adaptations it motivates and the baselines' own
// machinery, exercised on the same workloads.
func Extensions() []Experiment {
	return []Experiment{
		{"xdvfs", "Extension: phase-based frequency scaling", XDVFS},
		{"xpredictors", "Extension: next-interval predictor comparison", XPredictors},
		{"xidealism", "Extension: idealized vs real interval detection", XIdealism},
	}
}

// ByName finds an experiment among the paper set and the extensions.
func ByName(name string) (Experiment, error) {
	for _, e := range append(All(), Extensions()...) {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", name)
}

// phaseOrder returns sorted keys of a per-phase map.
func phaseOrder[V any](m map[marker.PhaseID]V) []marker.PhaseID {
	out := make([]marker.PhaseID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
