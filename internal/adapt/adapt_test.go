package adapt

import (
	"math"
	"testing"

	"lpp/internal/cache"
	"lpp/internal/interval"
)

// vec builds a locality vector that reaches its floor miss rate at
// associativity `knee`: larger caches don't help beyond the knee.
func vec(knee int, floor float64) cache.Vector {
	var v cache.Vector
	for a := 1; a <= cache.MaxAssoc; a++ {
		if a >= knee {
			v[a-1] = floor
		} else {
			v[a-1] = floor + 0.1*float64(knee-a)
		}
	}
	return v
}

func win(knee int, length int64) interval.Window {
	return interval.Window{EndAccess: length, Loc: vec(knee, 0.02)}
}

func TestBestAssoc(t *testing.T) {
	if got := BestAssoc(vec(3, 0.02), 0); got != 3 {
		t.Errorf("BestAssoc = %d, want 3", got)
	}
	// A 5% bound admits the next smaller size if its miss rate is
	// within 5%.
	v := vec(3, 0.02)
	v[1] = 0.0209 // 4.5% above floor
	if got := BestAssoc(v, 0.05); got != 2 {
		t.Errorf("BestAssoc with 5%% bound = %d, want 2", got)
	}
	// Flat vector: direct-mapped suffices.
	if got := BestAssoc(vec(1, 0.1), 0); got != 1 {
		t.Errorf("flat vector BestAssoc = %d, want 1", got)
	}
}

func TestGroupedMethodLearnsPerPhase(t *testing.T) {
	// Two phases with knees at 2 and 6, alternating, 10 executions
	// each. After exploration the method should run phase A at 2 and
	// phase B at 6.
	var wins []interval.Window
	var labels []int
	for i := 0; i < 10; i++ {
		wins = append(wins, win(2, 1000), win(6, 1000))
		labels = append(labels, 0, 1)
	}
	r := GroupedMethod(labels, wins, 0)
	if r.Explorations != 2 {
		t.Errorf("explorations = %d, want 2", r.Explorations)
	}
	// 2 windows each at (8,4), then 8 at 2 and 8 at 6:
	wantAvg := float64((8+4+8+4+8*2+8*6)*bytesPerAssoc) / 20
	if math.Abs(r.AvgBytes-wantAvg) > 1 {
		t.Errorf("AvgBytes = %g, want %g", r.AvgBytes, wantAvg)
	}
	// Learned sizes are at the knee, so no miss increase.
	if r.MissIncrease > 1e-9 {
		t.Errorf("miss increase = %g, want 0", r.MissIncrease)
	}
}

func TestGroupedMethodMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	GroupedMethod([]int{0}, nil, 0)
}

func TestIntervalMethodStableRun(t *testing.T) {
	// Constant behavior: one exploration, then the best size
	// everywhere.
	var wins []interval.Window
	for i := 0; i < 12; i++ {
		wins = append(wins, win(3, 1000))
	}
	r := IntervalMethod(wins, 0)
	if r.Explorations != 1 {
		t.Errorf("explorations = %d, want 1", r.Explorations)
	}
	wantAvg := float64((8+4+10*3)*bytesPerAssoc) / 12
	if math.Abs(r.AvgBytes-wantAvg) > 1 {
		t.Errorf("AvgBytes = %g, want %g", r.AvgBytes, wantAvg)
	}
}

func TestIntervalMethodThrashingPaysExploration(t *testing.T) {
	// Best size changes every window: the method explores
	// constantly and the average stays near full size.
	var wins []interval.Window
	for i := 0; i < 20; i++ {
		knee := 2
		if i%2 == 1 {
			knee = 7
		}
		wins = append(wins, win(knee, 1000))
	}
	r := IntervalMethod(wins, 0)
	stable := GroupedMethod(alternatingLabels(20), wins, 0)
	if r.AvgBytes <= stable.AvgBytes {
		t.Errorf("thrashing interval method (%g) should cost more than phase method (%g)",
			r.AvgBytes, stable.AvgBytes)
	}
}

func alternatingLabels(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % 2
	}
	return out
}

func TestFullSize(t *testing.T) {
	wins := []interval.Window{win(3, 1000), win(5, 1000)}
	r := FullSize(wins)
	if r.AvgBytes != float64(8*bytesPerAssoc) {
		t.Errorf("AvgBytes = %g, want 256KB", r.AvgBytes)
	}
	if r.MissIncrease != 0 {
		t.Errorf("full size miss increase = %g", r.MissIncrease)
	}
}

func TestScoreEmpty(t *testing.T) {
	var tl tally
	r := tl.result(0)
	if r.AvgBytes != 0 || r.MissIncrease != 0 {
		t.Errorf("empty score = %+v", r)
	}
}

func TestIntervalMethodPredictedStableRun(t *testing.T) {
	// Constant behavior: last-value prediction becomes perfect after
	// the first window.
	var wins []interval.Window
	for i := 0; i < 12; i++ {
		wins = append(wins, win(3, 1000))
	}
	var lv interval.LastValue
	r := IntervalMethodPredicted(wins, 0, &lv)
	// First window at full size, the rest at the knee.
	wantAvg := float64((8+11*3)*bytesPerAssoc) / 12
	if math.Abs(r.AvgBytes-wantAvg) > 1 {
		t.Errorf("AvgBytes = %g, want %g", r.AvgBytes, wantAvg)
	}
	if r.MissIncrease > 1e-9 {
		t.Errorf("miss increase = %g, want 0", r.MissIncrease)
	}
	if r.Explorations != 0 {
		t.Errorf("mispredictions = %d, want 0", r.Explorations)
	}
}

func TestIntervalMethodPredictedAlternationPaysMisses(t *testing.T) {
	// Alternating best sizes: last-value mispredicts every window —
	// half the windows run too small (miss increase), half too large
	// (wasted space). The idealized method with perfect detection
	// avoids the miss increase entirely.
	var wins []interval.Window
	for i := 0; i < 20; i++ {
		knee := 2
		if i%2 == 1 {
			knee = 7
		}
		wins = append(wins, win(knee, 1000))
	}
	var lv interval.LastValue
	real := IntervalMethodPredicted(wins, 0, &lv)
	if real.Explorations < 15 {
		t.Errorf("mispredictions = %d, want ~19", real.Explorations)
	}
	if real.MissIncrease <= 0 {
		t.Errorf("real predictor should pay a miss increase, got %g", real.MissIncrease)
	}
	ideal := IntervalMethod(wins, 0)
	if ideal.MissIncrease > 1e-9 {
		t.Errorf("idealized method miss increase = %g", ideal.MissIncrease)
	}
}

func TestIntervalMethodPredictedMarkovLearnsPattern(t *testing.T) {
	// The same alternation is perfectly learnable by an order-1
	// Markov predictor.
	var wins []interval.Window
	for i := 0; i < 40; i++ {
		knee := 2
		if i%2 == 1 {
			knee = 7
		}
		wins = append(wins, win(knee, 1000))
	}
	m := interval.NewMarkov(1)
	r := IntervalMethodPredicted(wins, 0, m)
	// After one full period the table is learned: few mispredictions.
	if r.Explorations > 4 {
		t.Errorf("markov mispredictions = %d, want <= 4", r.Explorations)
	}
}
