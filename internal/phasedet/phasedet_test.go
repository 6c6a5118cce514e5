package phasedet

import (
	"math"
	"testing"

	"lpp/internal/stats"
)

func TestPartitionClusteredBoundaries(t *testing.T) {
	// Three boundary clusters of three distinct data samples each —
	// the shape wavelet filtering produces. The optimal partition
	// cuts between the clusters.
	ids := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	bounds := Partition(ids, Config{Alpha: 0.5})
	if len(bounds) != 2 || bounds[0] != 3 || bounds[1] != 6 {
		t.Errorf("bounds = %v, want [3 6]", bounds)
	}
}

func TestPartitionSinglePhase(t *testing.T) {
	// All distinct: no reuse penalty anywhere, so one phase wins
	// (every extra boundary costs 1).
	ids := []int{0, 1, 2, 3, 4, 5}
	bounds := Partition(ids, Config{Alpha: 0.5})
	if len(bounds) != 0 {
		t.Errorf("bounds = %v, want none", bounds)
	}
}

func TestPartitionAlphaExtremes(t *testing.T) {
	ids := []int{0, 0, 0, 0}
	// α = 1: reuse within a phase costs as much as a new phase, so
	// the minimum splits every element apart (penalty n) or any
	// equal-cost variant; crucially the optimum penalty is n.
	bounds := Partition(ids, Config{Alpha: 1})
	if got := PartitionCost(ids, bounds, 1); got != 4 {
		t.Errorf("alpha=1 penalty = %g, want 4", got)
	}
	// Tiny α: reuses are nearly free, one phase wins.
	bounds = Partition(ids, Config{Alpha: 0.01})
	if len(bounds) != 0 {
		t.Errorf("alpha=0.01 bounds = %v, want none", bounds)
	}
}

func TestPartitionStableAcrossAlphaRange(t *testing.T) {
	// The paper found partitions similar for α in [0.2, 0.8] on its
	// boundary-clustered traces; check that on a clean clustered
	// trace the boundaries are identical across the range.
	var ids []int
	for p := 0; p < 5; p++ {
		ids = append(ids, 0, 1, 2, 3, 4, 5, 6, 7)
	}
	want := Partition(ids, Config{Alpha: 0.5})
	for _, a := range []float64{0.2, 0.3, 0.6, 0.8} {
		got := Partition(ids, Config{Alpha: a})
		if len(got) != len(want) {
			t.Fatalf("alpha=%g: bounds %v differ from %v", a, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("alpha=%g: bounds %v differ from %v", a, got, want)
			}
		}
	}
}

func TestPenaltyPaperExample(t *testing.T) {
	// The trace "aceefgefbd" (Section 2.2.3): between c and b there
	// are two recurrences of e and one of f, so the segment weight
	// is 3α + 1.
	ids := []int{0, 1, 2, 2, 3, 4, 2, 3, 5, 6}
	// Partition with boundaries at c+1=2 and b=8: segments
	// [a c][e e f g e f][b d]: middle has r = 3.
	alpha := 0.5
	got := PartitionCost(ids, []int{2, 8}, alpha)
	want := (alpha*0 + 1) + (alpha*3 + 1) + (alpha*0 + 1)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("penalty = %g, want %g", got, want)
	}
}

// bruteBest enumerates all 2^(n-1) partitions and returns the least
// penalty.
func bruteBest(ids []int, alpha float64) float64 {
	n := len(ids)
	best := math.Inf(1)
	for mask := 0; mask < 1<<(n-1); mask++ {
		var bounds []int
		for b := 0; b < n-1; b++ {
			if mask>>b&1 == 1 {
				bounds = append(bounds, b+1)
			}
		}
		if p := PartitionCost(ids, bounds, alpha); p < best {
			best = p
		}
	}
	return best
}

func TestPartitionOptimalVsBruteForce(t *testing.T) {
	rng := stats.NewRNG(21)
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(10)
		ids := make([]int, n)
		for i := range ids {
			ids[i] = rng.Intn(4)
		}
		alpha := 0.1 + rng.Float64()*0.9
		bounds := Partition(ids, Config{Alpha: alpha})
		got := PartitionCost(ids, bounds, alpha)
		want := bruteBest(ids, alpha)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("ids=%v alpha=%g: Partition penalty %g, brute force %g (bounds %v)",
				ids, alpha, got, want, bounds)
		}
	}
}

func TestPartitionMaxSpan(t *testing.T) {
	// With MaxSpan 2, no segment may exceed 2 elements.
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7}
	bounds := Partition(ids, Config{Alpha: 0.5, MaxSpan: 2})
	prevEnd := 0
	for _, b := range append(bounds, len(ids)) {
		if b-prevEnd > 2 {
			t.Fatalf("segment [%d,%d) exceeds MaxSpan", prevEnd, b)
		}
		prevEnd = b
	}
}

func TestPartitionEmpty(t *testing.T) {
	if got := Partition(nil, Config{}); got != nil {
		t.Errorf("empty trace bounds = %v", got)
	}
}

func TestPartitionBoundsAscendingAndInRange(t *testing.T) {
	rng := stats.NewRNG(31)
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(60)
		ids := make([]int, n)
		for i := range ids {
			ids[i] = rng.Intn(5)
		}
		bounds := Partition(ids, Config{Alpha: 0.5})
		for i, b := range bounds {
			if b <= 0 || b >= n {
				t.Fatalf("boundary %d out of range (n=%d)", b, n)
			}
			if i > 0 && bounds[i-1] >= b {
				t.Fatalf("bounds not ascending: %v", bounds)
			}
		}
	}
}

func BenchmarkPartition(b *testing.B) {
	rng := stats.NewRNG(1)
	ids := make([]int, 2000)
	for i := range ids {
		ids[i] = rng.Intn(50)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Partition(ids, Config{Alpha: 0.5, MaxSpan: 500})
	}
}
