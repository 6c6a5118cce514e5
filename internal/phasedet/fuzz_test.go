package phasedet

import (
	"math"
	"slices"
	"testing"
)

func TestPartitionSpanLargerThanTrace(t *testing.T) {
	// A span bound beyond the trace length must behave exactly like
	// no bound at all.
	ids := []int{1, 2, 3, 1, 2, 3, 4, 5, 6}
	unbounded := Partition(ids, Config{Alpha: 0.5})
	bounded := Partition(ids, Config{Alpha: 0.5, MaxSpan: len(ids) * 10})
	if len(unbounded) != len(bounded) {
		t.Fatalf("span > n diverges: %v vs %v", bounded, unbounded)
	}
	for i := range unbounded {
		if unbounded[i] != bounded[i] {
			t.Fatalf("span > n diverges: %v vs %v", bounded, unbounded)
		}
	}
}

func TestPartitionSingleSample(t *testing.T) {
	if got := Partition([]int{7}, Config{Alpha: 0.5}); len(got) != 0 {
		t.Errorf("single-sample trace produced boundaries %v, want none", got)
	}
	if got := Partition(nil, Config{Alpha: 0.5}); got != nil {
		t.Errorf("empty trace produced boundaries %v, want nil", got)
	}
}

func TestPartitionAllIdenticalIDs(t *testing.T) {
	// Every access repeats one data sample. With a span bound the
	// optimal partition uses as few segments as the bound allows
	// (each extra segment costs 1-α > 0 net), i.e. ceil(n/span)
	// segments, and the total cost is α(n-k) + k.
	const n, span = 12, 4
	ids := make([]int, n)
	for i := range ids {
		ids[i] = 3
	}
	alpha := 0.5
	bounds := Partition(ids, Config{Alpha: alpha, MaxSpan: span})
	k := len(bounds) + 1
	if want := (n + span - 1) / span; k != want {
		t.Fatalf("identical IDs at span %d: %d segments (%v), want %d", span, k, bounds, want)
	}
	prev := 0
	for _, b := range bounds {
		if b <= prev || b >= n {
			t.Fatalf("boundary %d out of order or range in %v", b, bounds)
		}
		if b-prev > span {
			t.Fatalf("segment [%d,%d) exceeds span %d", prev, b, span)
		}
		prev = b
	}
	got := PartitionCost(ids, bounds, alpha)
	want := alpha*float64(n-k) + float64(k)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("cost %.6f, want %.6f", got, want)
	}
}

// bruteBestSpan enumerates every span-respecting partition of ids and
// returns the minimum cost (exponential: test-size traces only).
func bruteBestSpan(ids []int, alpha float64, span int) float64 {
	n := len(ids)
	if span <= 0 || span > n {
		span = n
	}
	best := math.Inf(1)
	var rec func(start int, bounds []int)
	rec = func(start int, bounds []int) {
		if n-start <= span {
			if c := PartitionCost(ids, bounds, alpha); c < best {
				best = c
			}
			if n-start == 0 {
				return
			}
		}
		for next := start + 1; next < n && next-start <= span; next++ {
			rec(next, append(bounds, next))
		}
	}
	rec(0, nil)
	return best
}

// FuzzPartition asserts, for arbitrary traces, that the partitioner
// returns exactly the frozen partitioner's boundaries, that they are
// strictly increasing, interior to the trace, respect the span bound,
// and cost no more (per PartitionCost) than the singleton partition,
// uniform-stride partitions, and — for traces small enough to
// enumerate — the true optimum.
func FuzzPartition(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2, 3}, uint8(50), uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint8(80), uint8(3))
	f.Add([]byte{9, 9, 1, 9, 9, 2, 9, 9, 3}, uint8(20), uint8(4))
	f.Add([]byte{5}, uint8(99), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, alphaRaw, spanRaw uint8) {
		if len(data) > 64 {
			data = data[:64]
		}
		n := len(data)
		ids := make([]int, n)
		for i, b := range data {
			ids[i] = int(b % 16) // force recurrences
		}
		alpha := 0.05 + 0.9*float64(alphaRaw%100)/100
		span := int(spanRaw)
		cfg := Config{Alpha: alpha, MaxSpan: span}
		effSpan := span
		if effSpan <= 0 || effSpan > n {
			effSpan = n
		}

		bounds := Partition(ids, cfg)
		if want := refPartition(ids, cfg); !slices.Equal(bounds, want) {
			t.Fatalf("boundaries %v, frozen partitioner %v (ids %v span %d alpha %.2f)",
				bounds, want, ids, span, alpha)
		}
		if n == 0 {
			if len(bounds) != 0 {
				t.Fatalf("empty trace produced boundaries %v", bounds)
			}
			return
		}
		prev := 0
		for _, b := range bounds {
			if b <= prev || b >= n {
				t.Fatalf("boundary %d invalid in %v (n=%d)", b, bounds, n)
			}
			if b-prev > effSpan {
				t.Fatalf("segment [%d,%d) exceeds span %d (bounds %v)", prev, b, effSpan, bounds)
			}
			prev = b
		}
		if n-prev > effSpan {
			t.Fatalf("final segment [%d,%d) exceeds span %d (bounds %v)", prev, n, effSpan, bounds)
		}

		cost := PartitionCost(ids, bounds, alpha)
		// Singleton partition: a boundary before every element.
		singleton := make([]int, 0, n-1)
		for i := 1; i < n; i++ {
			singleton = append(singleton, i)
		}
		if sc := PartitionCost(ids, singleton, alpha); cost > sc+1e-9 {
			t.Errorf("cost %.6f exceeds singleton partition cost %.6f", cost, sc)
		}
		// Uniform-stride partitions at every stride the span allows.
		for stride := 1; stride <= effSpan; stride++ {
			var alt []int
			for b := stride; b < n; b += stride {
				alt = append(alt, b)
			}
			if ac := PartitionCost(ids, alt, alpha); cost > ac+1e-9 {
				t.Errorf("cost %.6f exceeds stride-%d partition cost %.6f", cost, stride, ac)
			}
		}
		// Exhaustive check for small traces.
		if n <= 10 {
			if best := bruteBestSpan(ids, alpha, span); cost > best+1e-9 {
				t.Errorf("cost %.6f exceeds brute-force optimum %.6f (ids %v span %d alpha %.2f)",
					cost, best, ids, span, alpha)
			}
		}
	})
}
