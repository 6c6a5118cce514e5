// Package lpp_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation (one testing.B benchmark
// per artifact, run at test scale) plus ablation benchmarks for the
// design choices called out in DESIGN.md: the wavelet family, the
// partition penalty α, and the phase-marker policies.
//
// Full-size regeneration is the job of cmd/lppbench; these benchmarks
// exist so `go test -bench=.` exercises every experiment end to end
// and times the analysis pipeline itself.
package lpp_test

import (
	"io"
	"testing"

	"lpp/internal/bbv"
	"lpp/internal/core"
	"lpp/internal/experiments"
	"lpp/internal/phasedet"
	"lpp/internal/predictor"
	"lpp/internal/reuse"
	"lpp/internal/sampling"
	"lpp/internal/stats"
	"lpp/internal/trace"
	"lpp/internal/wavelet"
	"lpp/internal/workload"
)

func benchExperiment(b *testing.B, name string) {
	e, err := experiments.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	opts := experiments.Options{W: io.Discard, Quick: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per table of the paper.
func BenchmarkTable1Benchmarks(b *testing.B)       { benchExperiment(b, "table1") }
func BenchmarkTable2AccuracyCoverage(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3PhaseSizes(b *testing.B)       { benchExperiment(b, "table3") }
func BenchmarkTable4LocalityStdDev(b *testing.B)   { benchExperiment(b, "table4") }
func BenchmarkTable5ArrayRegrouping(b *testing.B)  { benchExperiment(b, "table5") }
func BenchmarkTable6ManualMarkers(b *testing.B)    { benchExperiment(b, "table6") }

// One benchmark per figure of the paper.
func BenchmarkFig1ReuseTrace(b *testing.B)         { benchExperiment(b, "fig1") }
func BenchmarkFig2WaveletFiltering(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFig3PhaseVsIntervalBBV(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFig4NoisyMachine(b *testing.B)       { benchExperiment(b, "fig4") }
func BenchmarkFig5GccVortex(b *testing.B)          { benchExperiment(b, "fig5") }
func BenchmarkFig6CacheResizing(b *testing.B)      { benchExperiment(b, "fig6") }

// BenchmarkPipelineDetect times the complete off-line analysis on a
// Tomcatv training run (sampling + wavelets + partitioning + markers +
// hierarchy).
func BenchmarkPipelineDetect(b *testing.B) {
	spec, _ := workload.ByName("tomcatv")
	p := workload.Params{N: 48, Steps: 6, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Detect(spec.Make(p), core.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelinePredict times the run-time side: markers, cache
// simulation, and the predictor over a reference run.
func BenchmarkPipelinePredict(b *testing.B) {
	spec, _ := workload.ByName("tomcatv")
	det, err := core.Detect(spec.Make(workload.Params{N: 48, Steps: 6, Seed: 1}), core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	ref := workload.Params{N: 96, Steps: 10, Seed: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Predict(spec.Make(ref), det, predictor.Strict)
	}
}

// Ablation: the wavelet family used for sub-trace filtering. The paper
// reports that families other than Daubechies-6 "produce a similar
// result"; this benchmark lets that be timed and verified.
func BenchmarkAblationWaveletFamily(b *testing.B) {
	spec, _ := workload.ByName("tomcatv")
	p := workload.Params{N: 48, Steps: 6, Seed: 1}
	rec := trace.NewRecorder(0, 0)
	spec.Make(p).Run(rec)
	res := sampling.RunTrace(rec.T.Accesses, sampling.Config{})
	for _, fam := range []wavelet.Family{wavelet.Haar, wavelet.Daubechies4, wavelet.Daubechies6} {
		fam := fam
		b.Run(fam.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.FilterSamples(res, fam, 4)
			}
		})
	}
}

// Ablation: the recurrence penalty α of optimal phase partitioning.
// The paper finds partitions stable for α in [0.2, 0.8].
func BenchmarkAblationAlpha(b *testing.B) {
	rng := stats.NewRNG(5)
	ids := make([]int, 4000)
	for i := range ids {
		ids[i] = rng.Intn(64)
	}
	for _, alpha := range []float64{0.2, 0.5, 0.8} {
		alpha := alpha
		b.Run(formatAlpha(alpha), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				phasedet.Partition(ids, phasedet.Config{Alpha: alpha, MaxSpan: 1000})
			}
		})
	}
}

func formatAlpha(a float64) string {
	switch a {
	case 0.2:
		return "alpha=0.2"
	case 0.5:
		return "alpha=0.5"
	default:
		return "alpha=0.8"
	}
}

// Ablation: strict versus relaxed prediction over the same run.
func BenchmarkAblationPolicy(b *testing.B) {
	spec, _ := workload.ByName("compress")
	det, err := core.Detect(spec.Make(workload.Params{N: 8192, Steps: 5, Seed: 1}), core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	ref := workload.Params{N: 16384, Steps: 8, Seed: 2}
	for _, pol := range []predictor.Policy{predictor.Strict, predictor.Relaxed} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.Predict(spec.Make(ref), det, pol)
			}
		})
	}
}

// Extension experiments (beyond the paper's evaluation).
func BenchmarkXDVFSScaling(b *testing.B)         { benchExperiment(b, "xdvfs") }
func BenchmarkXPredictorComparison(b *testing.B) { benchExperiment(b, "xpredictors") }

// Ablation: exact versus approximate reuse-distance analysis.
func BenchmarkAblationReuseAnalyzer(b *testing.B) {
	rng := stats.NewRNG(9)
	addrs := make([]trace.Addr, 1<<18)
	for i := range addrs {
		addrs[i] = trace.Addr(rng.Intn(1 << 16))
	}
	b.Run("exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a := reuse.NewAnalyzer()
			for _, addr := range addrs {
				a.Access(addr)
			}
		}
	})
	b.Run("approx", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a := reuse.NewApproxAnalyzer(0.05)
			for _, addr := range addrs {
				a.Access(addr)
			}
		}
	})
}

// Ablation: BBV clustering algorithm.
func BenchmarkAblationClustering(b *testing.B) {
	spec, _ := workload.ByName("tomcatv")
	col := bbv.NewCollector(10_000, 7)
	spec.Make(workload.Params{N: 48, Steps: 8, Seed: 1}).Run(col)
	ivs := col.Intervals()
	b.Run("leader-follower", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bbv.Cluster(ivs, bbv.DefaultThreshold)
		}
	})
}
