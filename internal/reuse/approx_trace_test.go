package reuse

import (
	"testing"

	"lpp/internal/trace"
	"lpp/internal/workload"
)

// detectorMaxLive is the streaming detector's default eviction cap
// (online.DefaultConfig().MaxLive), the setting the server runs the
// analyzer at.
const detectorMaxLive = 1 << 16

// trainAccesses records the data accesses of a benchmark's Train input
// (tomcatv: ~1.9M accesses).
func trainAccesses(tb testing.TB, name string) []trace.Addr {
	tb.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	rec := trace.NewRecorder(1<<21, 1<<16)
	spec.Make(spec.Train).Run(rec)
	return rec.T.Accesses
}

// BenchmarkApproxTomcatvTrain runs the analyzer the way the streaming
// detector does — AccessEvict at the detector's eviction cap — over the
// recorded tomcatv Train trace, and reports ns per access. Unlike
// BenchmarkApproxAccess (random addresses, no eviction) this keeps the
// live set, and so the bucket count and compaction target, at the
// sizes a real session sees.
func BenchmarkApproxTomcatvTrain(b *testing.B) {
	addrs := trainAccesses(b, "tomcatv")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewApproxAnalyzer(0.05)
		for _, addr := range addrs {
			a.AccessEvict(addr, detectorMaxLive)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(addrs)), "ns/access")
}

// TestApproxAccessEvictZeroAllocs pins the analyzer half of the ingest
// hot path at zero allocations: after warm-up on a real Train trace, a
// 4K-access chunk through AccessEvict allocates nothing — Fenwick
// appends and rebuilds, compactions and evictions all reuse their
// slices. tomcatv stays under the eviction cap; swim evicts every ~40K
// accesses, so its window covers the eviction path too.
func TestApproxAccessEvictZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-runtime allocations")
	}
	for _, name := range []string{"tomcatv", "swim"} {
		addrs := trainAccesses(t, name)
		const chunk, warm = 4096, 1 << 20
		a := NewApproxAnalyzer(0.05)
		for _, addr := range addrs[:warm] {
			a.AccessEvict(addr, detectorMaxLive)
		}
		off, evictions := warm, 0
		avg := testing.AllocsPerRun(100, func() {
			for _, addr := range addrs[off : off+chunk] {
				before := a.Distinct()
				a.AccessEvict(addr, detectorMaxLive)
				if a.Distinct() < before {
					evictions++
				}
			}
			off += chunk
		})
		if avg != 0 {
			t.Errorf("%s: steady-state AccessEvict: %.2f allocs per %d-access chunk, want 0", name, avg, chunk)
		}
		if name == "swim" && evictions == 0 {
			t.Errorf("swim: no eviction in the measured window")
		}
	}
}

// TestApproxRelativeErrorOnTrainTraces enforces the (1±ε) bound the
// ApproxAnalyzer doc states, on real traces rather than random
// addresses: the exact and approximate analyzers run side by side with
// no eviction over four Train traces, and every exact distance of at
// least 1/ε must be matched within relative error ε. Cold misses must
// agree exactly. The worst error seen is about 0.5–0.6ε, so the bound
// holds with room to spare.
func TestApproxRelativeErrorOnTrainTraces(t *testing.T) {
	names := []string{"tomcatv", "swim", "applu", "fft"}
	if raceEnabled {
		names = []string{"fft"} // each trace takes ~8 s under -race
	}
	for _, name := range names {
		addrs := trainAccesses(t, name)
		for _, eps := range []float64{0.05, 0.1} {
			ex, ap := NewAnalyzer(), NewApproxAnalyzer(eps)
			minDist := int64(1 / eps)
			var worst float64
			checked := 0
			for i, addr := range addrs {
				want, got := ex.Access(addr), ap.Access(addr)
				if want == Infinite || got == Infinite {
					if want != got {
						t.Fatalf("%s eps=%g access %d: exact %d, approx %d (cold misses must agree)", name, eps, i, want, got)
					}
					continue
				}
				if want < minDist {
					continue
				}
				checked++
				rel := float64(got-want) / float64(want)
				if rel < 0 {
					rel = -rel
				}
				if rel > worst {
					worst = rel
				}
			}
			if checked == 0 {
				t.Fatalf("%s eps=%g: no distance of at least %d to check", name, eps, minDist)
			}
			if worst > eps {
				t.Errorf("%s eps=%g: worst relative error %.4f over %d distances ≥ %d, want ≤ eps", name, eps, worst, checked, minDist)
			}
			t.Logf("%s eps=%g: %d accesses, %d checked, worst relative error %.3fε", name, eps, len(addrs), checked, worst/eps)
		}
	}
}
