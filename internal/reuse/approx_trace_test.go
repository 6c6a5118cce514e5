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
