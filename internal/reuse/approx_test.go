package reuse

import (
	"testing"

	"lpp/internal/stats"
	"lpp/internal/trace"
)

func TestApproxMatchesExactOnSmallDistances(t *testing.T) {
	// Before any compaction every bucket is a singleton, so the
	// approximate analyzer is exact.
	ex, ap := NewAnalyzer(), NewApproxAnalyzer(0.05)
	seq := []trace.Addr{1, 2, 3, 1, 2, 3, 3, 1}
	for _, addr := range seq {
		if got, want := ap.Access(addr), ex.Access(addr); got != want {
			t.Fatalf("distance = %d, want %d", got, want)
		}
	}
}

func TestApproxColdAccesses(t *testing.T) {
	ap := NewApproxAnalyzer(0.1)
	for i := 0; i < 100; i++ {
		if d := ap.Access(trace.Addr(i)); d != Infinite {
			t.Fatalf("cold access reported distance %d", d)
		}
	}
	if ap.Distinct() != 100 {
		t.Errorf("Distinct = %d", ap.Distinct())
	}
}

func TestApproxRelativeErrorBound(t *testing.T) {
	// Random accesses over a large working set: compare against the
	// exact analyzer; relative error must stay near eps for long
	// distances.
	const eps = 0.1
	ex, ap := NewAnalyzer(), NewApproxAnalyzer(eps)
	rng := stats.NewRNG(17)
	var worst float64
	for i := 0; i < 200000; i++ {
		addr := trace.Addr(rng.Intn(20000))
		want := ex.Access(addr)
		got := ap.Access(addr)
		if want == Infinite {
			if got != Infinite {
				t.Fatal("approx saw warmth where exact saw cold")
			}
			continue
		}
		if want < 100 {
			continue // error bound is relative; tiny distances noisy
		}
		rel := float64(got-want) / float64(want)
		if rel < 0 {
			rel = -rel
		}
		if rel > worst {
			worst = rel
		}
	}
	// Mid-bucket estimation plus merging tolerates up to ~2ε.
	if worst > 2.5*eps {
		t.Errorf("worst relative error %.3f exceeds %.3f", worst, 2.5*eps)
	}
}

func TestApproxCyclicWorkingSet(t *testing.T) {
	// Cyclic reuse of N elements: every warm access has true
	// distance N-1.
	const n = 50000
	ap := NewApproxAnalyzer(0.05)
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			d := ap.Access(trace.Addr(i))
			if round == 0 {
				continue
			}
			rel := float64(d-(n-1)) / float64(n-1)
			if rel < 0 {
				rel = -rel
			}
			if rel > 0.15 {
				t.Fatalf("round %d elem %d: distance %d, want ~%d", round, i, d, n-1)
			}
		}
	}
}

func TestApproxMemoryBound(t *testing.T) {
	// The bucket count must stay logarithmic in the working set, not
	// linear in trace length.
	ap := NewApproxAnalyzer(0.05)
	rng := stats.NewRNG(3)
	for i := 0; i < 500000; i++ {
		ap.Access(trace.Addr(rng.Intn(100000)))
	}
	if b := ap.Buckets(); b > 4096 {
		t.Errorf("buckets = %d; memory bound violated", b)
	}
}

func TestApproxDefaultEps(t *testing.T) {
	for _, bad := range []float64{0, -1, 1, 7} {
		a := NewApproxAnalyzer(bad)
		if a.eps != 0.05 {
			t.Errorf("eps(%g) = %g, want default 0.05", bad, a.eps)
		}
	}
}

func BenchmarkApproxAccess(b *testing.B) {
	a := NewApproxAnalyzer(0.05)
	rng := stats.NewRNG(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Access(trace.Addr(rng.Intn(1 << 16)))
	}
}

func TestApproxEvictOldest(t *testing.T) {
	ap := NewApproxAnalyzer(0.05)
	for i := 0; i < 10000; i++ {
		ap.Access(trace.Addr(i))
	}
	evicted := ap.EvictOldest(1000)
	if evicted < 9000 {
		t.Fatalf("evicted %d, want >= 9000", evicted)
	}
	if ap.Distinct() > 1000 {
		t.Fatalf("Distinct = %d after eviction cap 1000", ap.Distinct())
	}
	// Evicted (old) addresses read cold again; survivors stay warm.
	if d := ap.Access(0); d != Infinite {
		t.Errorf("evicted address warm: %d", d)
	}
	if d := ap.Access(9999); d == Infinite {
		t.Error("recent address went cold")
	}
	// No-op when already under the cap.
	if n := ap.EvictOldest(1 << 20); n != 0 {
		t.Errorf("eviction under cap removed %d", n)
	}
}

func TestApproxEvictKeepsDistancesConsistent(t *testing.T) {
	// After eviction the analyzer must keep producing sane distances:
	// a cyclic working set larger than the cap degrades to cold
	// misses, never to panics or negative distances.
	const n, cap = 5000, 1000
	ap := NewApproxAnalyzer(0.05)
	for round := 0; round < 4; round++ {
		for i := 0; i < n; i++ {
			d := ap.Access(trace.Addr(i))
			if d != Infinite && d < 0 {
				t.Fatalf("negative distance %d", d)
			}
			if ap.Distinct() > 2*cap {
				ap.EvictOldest(cap)
			}
		}
	}
	if ap.Distinct() > 2*cap {
		t.Errorf("Distinct = %d, cap %d not enforced", ap.Distinct(), cap)
	}
}
