package predictor

import "lpp/internal/regexphase"

// NextPhase predicts the identity of the next phase from the phase
// hierarchy: the regular expression compiles to a finite automaton
// (the "simple method" of Section 2.4), and whenever the current state
// has exactly one outgoing transition the next phase is known. The
// automaton re-synchronizes from the start state if the program
// deviates from the hierarchy.
type NextPhase struct {
	dfa   *regexphase.DFA
	state int

	predictions int64
	correct     int64
	resyncs     int64
}

// NewNextPhase compiles the hierarchy into a predictor automaton.
func NewNextPhase(h regexphase.Expr) *NextPhase {
	return NewNextPhaseDFA(regexphase.Minimize(regexphase.Compile(h)))
}

// NewNextPhaseDFA returns a predictor walking an already compiled
// hierarchy automaton (regexphase.Memo.Automaton). Stepping the
// automaton builds its symbol index lazily, so a DFA shared between
// predictors must stay with one goroutine: the online detector's memo
// and its predictors all belong to one session.
func NewNextPhaseDFA(d *regexphase.DFA) *NextPhase {
	return &NextPhase{dfa: d, state: d.Start}
}

// Predict returns the next expected phase ID, if the automaton's
// current state determines it uniquely.
func (n *NextPhase) Predict() (int, bool) {
	if n.state < 0 {
		return 0, false
	}
	next := -1
	count := 0
	for i, t := range n.dfa.Trans[n.state] {
		if t >= 0 {
			next = n.dfa.Alphabet[i]
			count++
		}
	}
	if count != 1 {
		return 0, false
	}
	return next, true
}

// Observe advances the automaton on the phase that actually began,
// scoring any outstanding prediction.
func (n *NextPhase) Observe(phase int) {
	if pred, ok := n.Predict(); ok {
		n.predictions++
		if pred == phase {
			n.correct++
		}
	}
	n.advance(phase)
}

// Walk advances the automaton through phases as Observe would, without
// scoring predictions: it positions a fresh predictor on a known phase
// history.
func (n *NextPhase) Walk(phases []int) {
	for _, p := range phases {
		n.advance(p)
	}
}

func (n *NextPhase) advance(phase int) {
	if n.state >= 0 {
		n.state = n.dfa.Step(n.state, phase)
	}
	if n.state < 0 {
		// Deviation from the hierarchy: re-synchronize.
		n.resyncs++
		n.state = n.dfa.Step(n.dfa.Start, phase)
	}
}

// Accuracy returns the fraction of next-phase predictions that were
// right (1 if none were made).
func (n *NextPhase) Accuracy() float64 {
	if n.predictions == 0 {
		return 1
	}
	return float64(n.correct) / float64(n.predictions)
}

// Predictions returns how many next-phase predictions were made.
func (n *NextPhase) Predictions() int64 { return n.predictions }

// Resyncs returns how many times the automaton lost track.
func (n *NextPhase) Resyncs() int64 { return n.resyncs }
