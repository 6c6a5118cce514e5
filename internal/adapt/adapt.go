// Package adapt implements the adaptive cache-resizing experiment of
// Section 3.2: choose, per execution window, the smallest cache size
// whose miss rate stays within a bound of the full-size (256KB) miss
// rate, and compare how well phase-, interval-, and BBV-based methods
// find that size. Exploration cost follows the paper's minimal-cost
// model: each exploration takes exactly two trial windows, one at the
// full cache size and one at half size, before the learned size is
// used.
package adapt

import (
	"lpp/internal/cache"
	"lpp/internal/codec"
	"lpp/internal/interval"
)

// BestAssoc returns the smallest associativity (1..8, i.e. 32KB units)
// whose miss rate does not exceed the full-size miss rate by more than
// bound (relative): bound 0 asks for no miss increase, 0.05 allows 5%.
func BestAssoc(v cache.Vector, bound float64) int {
	full := v.MissAt(cache.MaxAssoc)
	limit := full * (1 + bound)
	const eps = 1e-12
	for a := 1; a <= cache.MaxAssoc; a++ {
		if v.MissAt(a) <= limit+eps {
			return a
		}
	}
	return cache.MaxAssoc
}

// Result summarizes one resizing run.
type Result struct {
	// AvgBytes is the access-weighted average cache size in bytes.
	AvgBytes float64
	// Explorations counts exploration episodes (two trial windows
	// each).
	Explorations int
	// MissIncrease is the relative increase in total misses over
	// always running at full size, for the learned (non-exploration)
	// windows — the steady-state cost of the chosen sizes.
	MissIncrease float64
}

const bytesPerAssoc = cache.DefaultSets << cache.DefaultBlockBits // 32KB

// tally folds the sizes a method assigns, window by window in order,
// into a Result. Exploration trial windows count toward the average
// size but not the steady-state miss accounting.
type tally struct {
	bytesSum, lenSum   float64
	misses, fullMisses float64
}

// add scores a window of l accesses with locality loc run at assoc.
func (t *tally) add(assoc int, l float64, loc cache.Vector, explore bool) {
	t.bytesSum += float64(assoc*bytesPerAssoc) * l
	t.lenSum += l
	if explore {
		return
	}
	t.misses += loc.MissAt(assoc) * l
	t.fullMisses += loc.MissAt(cache.MaxAssoc) * l
}

func (t *tally) result(explorations int) Result {
	r := Result{Explorations: explorations}
	if t.lenSum > 0 {
		r.AvgBytes = t.bytesSum / t.lenSum
	}
	if t.fullMisses > 0 {
		r.MissIncrease = t.misses/t.fullMisses - 1
	}
	return r
}

// exploreSizes is the paper's exploration cost: one window at full
// size, one at half size.
var exploreSizes = []int{cache.MaxAssoc, cache.MaxAssoc / 2}

// Resizer applies the grouped learn-then-reuse policy one window at a
// time, with a behavior label per window (phase IDs for the phase
// method, cluster IDs for the BBV method): the first two windows of
// each label are exploration trials (full size, then half size);
// afterwards the label's learned size — the largest best size seen
// during its exploration — is reused for every later window of that
// label. GroupedMethod is a loop over it, and phase.CacheResizer
// feeds it one boundary event at a time.
type Resizer struct {
	bound        float64
	groups       map[int]*resizeGroup
	explorations int
	t            tally
}

type resizeGroup struct{ seen, learned int }

// NewResizer returns a resizer that accepts at most bound relative
// miss increase over the full 256KB cache.
func NewResizer(bound float64) *Resizer {
	return &Resizer{bound: bound, groups: make(map[int]*resizeGroup)}
}

// Bound returns the resizer's miss-increase budget.
func (r *Resizer) Bound() float64 { return r.bound }

// Step runs one window of length accesses with locality loc under the
// given label.
func (r *Resizer) Step(label int, length int64, loc cache.Vector) {
	g := r.groups[label]
	if g == nil {
		g = &resizeGroup{}
		r.groups[label] = g
		r.explorations++
	}
	l := float64(length)
	if g.seen < len(exploreSizes) {
		r.t.add(exploreSizes[g.seen], l, loc, true)
		if b := BestAssoc(loc, r.bound); b > g.learned {
			g.learned = b
		}
		g.seen++
		return
	}
	r.t.add(g.learned, l, loc, false)
}

// Result summarizes the windows stepped so far.
func (r *Resizer) Result() Result { return r.t.result(r.explorations) }

// Encode appends the resizer's state: the exploration count, the
// accumulators, then each label's seen count and learned size in
// ascending label order.
func (r *Resizer) Encode(e *codec.Enc) {
	e.Num(r.explorations)
	e.F64(r.t.bytesSum)
	e.F64(r.t.lenSum)
	e.F64(r.t.misses)
	e.F64(r.t.fullMisses)
	e.Num(len(r.groups))
	for _, label := range codec.SortedKeys(r.groups) {
		g := r.groups[label]
		e.Num(label)
		e.Num(g.seen)
		e.Num(g.learned)
	}
}

// Decode returns a resizer with r's bound and the state Encode wrote.
// On a decode error the state is partial: callers keep the result only
// if d.Done() succeeds.
func (r *Resizer) Decode(d *codec.Dec) *Resizer {
	out := &Resizer{bound: r.bound}
	out.explorations = d.Num()
	out.t.bytesSum = d.F64()
	out.t.lenSum = d.F64()
	out.t.misses = d.F64()
	out.t.fullMisses = d.F64()
	n := d.Length(3)
	out.groups = make(map[int]*resizeGroup, n)
	for i, label := 0, 0; i < n && d.Err() == nil; i++ {
		label = d.Key(i, label)
		out.groups[label] = &resizeGroup{seen: d.Num(), learned: d.Num()}
	}
	return out
}

// GroupedMethod resizes a labeled window sequence with a Resizer.
func GroupedMethod(labels []int, wins []interval.Window, bound float64) Result {
	if len(labels) != len(wins) {
		panic("adapt: labels/windows length mismatch")
	}
	r := NewResizer(bound)
	for i, w := range wins {
		r.Step(labels[i], int64(w.Len()), w.Loc)
	}
	return r.Result()
}

// IntervalMethod resizes with fixed windows and the paper's idealized
// interval baseline: perfect phase-change detection (a change happens
// whenever the next window's best size differs from the current one),
// two exploration windows per change, then the best size until the
// next change.
func IntervalMethod(wins []interval.Window, bound float64) Result {
	var t tally
	explorations := 0
	i := 0
	cur := -1
	for i < len(wins) {
		best := BestAssoc(wins[i].Loc, bound)
		if best != cur {
			// Phase change: explore.
			explorations++
			for k := 0; k < len(exploreSizes) && i < len(wins); k++ {
				t.add(exploreSizes[k], float64(wins[i].Len()), wins[i].Loc, true)
				i++
			}
			if i < len(wins) {
				cur = BestAssoc(wins[i].Loc, bound)
			}
			continue
		}
		t.add(cur, float64(wins[i].Len()), wins[i].Loc, false)
		i++
	}
	return t.result(explorations)
}

// FullSize returns the no-adaptation baseline: every window at 256KB.
func FullSize(wins []interval.Window) Result {
	var t tally
	for _, w := range wins {
		t.add(cache.MaxAssoc, float64(w.Len()), w.Loc, false)
	}
	return t.result(0)
}

// ClassPredictor is a next-window class predictor (interval.LastValue,
// interval.Markov, or any equivalent).
type ClassPredictor interface {
	Predict() (int, bool)
	Observe(class int)
}

// IntervalMethodPredicted is the interval method without the paper's
// idealization: instead of perfect phase-change detection, a real
// predictor forecasts the next window's best size and the window runs
// at the forecast size (full size while unprimed). Mispredictions cost
// real misses — the steady-state miss accounting includes every
// window, since there is no separate exploration here.
func IntervalMethodPredicted(wins []interval.Window, bound float64, pred ClassPredictor) Result {
	var t tally
	mispredictions := 0
	for _, w := range wins {
		best := BestAssoc(w.Loc, bound)
		assoc := cache.MaxAssoc
		if forecast, ok := pred.Predict(); ok {
			// Clamp defensively: classes fed in are 1..MaxAssoc,
			// but the predictor is caller-supplied.
			assoc = min(max(forecast, 1), cache.MaxAssoc)
			if assoc != best {
				mispredictions++
			}
		}
		t.add(assoc, float64(w.Len()), w.Loc, false)
		pred.Observe(best)
	}
	return t.result(mispredictions)
}
