package adapt

import (
	"testing"
	"testing/quick"

	"lpp/internal/cache"
	"lpp/internal/interval"
	"lpp/internal/stats"
)

// randomWindows builds a window sequence with monotone (stack-
// inclusive) locality vectors, as a real LRU cache always produces.
func randomWindows(seed uint64, n int) ([]interval.Window, []int) {
	rng := stats.NewRNG(seed)
	wins := make([]interval.Window, n)
	labels := make([]int, n)
	for i := range wins {
		var v cache.Vector
		m := 0.05 + rng.Float64()*0.5
		for a := 0; a < cache.MaxAssoc; a++ {
			v[a] = m
			if rng.Intn(2) == 0 {
				m *= 0.5 + rng.Float64()*0.5 // non-increasing
			}
		}
		wins[i] = interval.Window{EndAccess: int64(100 + rng.Intn(1000)), Loc: v}
		labels[i] = rng.Intn(4)
	}
	return wins, labels
}

func TestPropertyAvgBytesWithinCacheRange(t *testing.T) {
	f := func(seed uint64, rawN uint8) bool {
		n := int(rawN)%60 + 1
		wins, labels := randomWindows(seed, n)
		for _, bound := range []float64{0, 0.05, 0.5} {
			for _, r := range []Result{
				GroupedMethod(labels, wins, bound),
				IntervalMethod(wins, bound),
			} {
				if r.AvgBytes < 32<<10-1 || r.AvgBytes > 256<<10+1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyBestAssocMonotoneInBound(t *testing.T) {
	// A looser miss bound never asks for a bigger cache.
	f := func(seed uint64) bool {
		wins, _ := randomWindows(seed, 20)
		for _, w := range wins {
			prev := cache.MaxAssoc + 1
			for _, bound := range []float64{0, 0.01, 0.05, 0.2, 1} {
				a := BestAssoc(w.Loc, bound)
				if a > prev {
					return false
				}
				prev = a
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyIdenticalWindowsNoMissIncrease(t *testing.T) {
	// When every window of a label behaves identically, the learned
	// size is exact and the steady-state miss increase at bound 0 is
	// zero.
	f := func(seed uint64, kneeRaw uint8) bool {
		knee := int(kneeRaw)%cache.MaxAssoc + 1
		var wins []interval.Window
		var labels []int
		for i := 0; i < 12; i++ {
			wins = append(wins, win(knee, 500))
			labels = append(labels, 0)
		}
		r := GroupedMethod(labels, wins, 0)
		return r.MissIncrease < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
