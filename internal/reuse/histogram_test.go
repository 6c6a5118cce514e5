package reuse

import (
	"math"
	"testing"
)

// TestHistogramMissRateEdges covers the inputs the ingest service can
// feed a histogram in practice: empty histograms, cold-only streams,
// and degenerate capacities (zero or negative caches must read as
// "misses everything", not index out of range).
func TestHistogramMissRateEdges(t *testing.T) {
	cold := NewHistogram()
	for i := 0; i < 5; i++ {
		cold.Add(Infinite)
	}
	mixed := NewHistogram()
	mixed.Add(Infinite)
	mixed.Add(0)
	mixed.Add(3)
	mixed.Add(exactLimit + 100) // overflow bucket
	big := NewHistogram()
	big.Add(1 << 30)

	cases := []struct {
		name     string
		h        *Histogram
		capacity int64
		want     float64
	}{
		{"empty zero capacity", NewHistogram(), 0, 0},
		{"empty negative capacity", NewHistogram(), -8, 0},
		{"zero value empty", &Histogram{}, 64, 0},
		{"cold-only zero capacity", cold, 0, 1},
		{"cold-only huge capacity", cold, 1 << 40, 1},
		{"cold-only negative capacity", cold, -1, 1},
		{"mixed zero capacity misses all", mixed, 0, 1},
		{"mixed negative capacity misses all", mixed, -100, 1},
		{"mixed capacity 1 keeps d=0", mixed, 1, 0.75},
		{"mixed capacity 4 keeps d<=3", mixed, 4, 0.5},
		{"mixed above overflow", mixed, 1 << 20, 0.25},
		{"overflow straddle counts as miss", big, 1 << 30, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := c.h.MissRate(c.capacity)
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Fatalf("MissRate(%d) = %v", c.capacity, got)
			}
			if math.Abs(got-c.want) > 1e-12 {
				t.Errorf("MissRate(%d) = %v, want %v", c.capacity, got, c.want)
			}
		})
	}
}
