package regexphase

import "lpp/internal/sequitur"

// FromGrammar converts a SEQUITUR grammar of the phase sequence into a
// regular expression, the paper's novel hierarchy-extraction step
// (Section 2.4): each non-terminal is converted exactly once
// (memoized), and adjacent equivalent sub-expressions on a right-hand
// side are merged into repetitions, so "R R" where R derives one time
// step becomes "(time step)+" — the composite phase of the largest
// granularity. It is Memo.FromGrammar on a fresh memo; a caller that
// rebuilds the hierarchy of a growing grammar keeps one Memo instead.
func FromGrammar(g sequitur.Grammar) Expr {
	return NewMemo(0).FromGrammar(g)
}

// BuildHierarchy compresses the phase-ID sequence with SEQUITUR and
// extracts the phase hierarchy as a regular expression.
func BuildHierarchy(phases []int) Expr {
	return FromGrammar(sequitur.Build(phases))
}

// MergeAdjacent collapses runs of equivalent adjacent expressions into
// repetitions. Because the number of repetitions scales with the
// program input (a prediction run executes far more time steps than
// the detection run), a merged run is represented as "one or more"
// rather than a fixed count: X X, X+ X, X X+, and X+ X+ all become X+.
// A single part is returned unwrapped.
func MergeAdjacent(parts []Expr) Expr {
	return NewMemo(0).MergeAdjacent(parts)
}

// LeafCount returns how many leaf-phase executions one pass through e
// takes, counting each repetition body once (Alt counts its longest
// choice).
func LeafCount(e Expr) int {
	switch v := e.(type) {
	case Lit:
		return 1
	case Concat:
		n := 0
		for _, p := range v.Parts {
			n += LeafCount(p)
		}
		return n
	case Alt:
		best := 0
		for _, c := range v.Choices {
			if n := LeafCount(c); n > best {
				best = n
			}
		}
		return best
	case Repeat:
		return LeafCount(v.E)
	}
	return 0
}

// FirstLeafOfLargestComposite returns the phase ID that begins the
// largest composite phase (the body of the biggest repetition) — the
// place to fire a once-per-time-step action. The second result is
// false when the hierarchy has no repetition or the body's first
// element is not determined (an alternation).
func FirstLeafOfLargestComposite(e Expr) (int, bool) {
	bestN := -1
	var bestBody Expr
	var walk func(Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case Repeat:
			if n := LeafCount(v.E); n > bestN {
				bestN, bestBody = n, v.E
			}
			walk(v.E)
		case Concat:
			for _, p := range v.Parts {
				walk(p)
			}
		case Alt:
			for _, c := range v.Choices {
				walk(c)
			}
		}
	}
	walk(e)
	if bestBody == nil {
		bestBody = e
	}
	return firstLeaf(bestBody)
}

// firstLeaf returns the first literal a traversal of e must produce.
func firstLeaf(e Expr) (int, bool) {
	switch v := e.(type) {
	case Lit:
		return v.Sym, true
	case Concat:
		for _, p := range v.Parts {
			if s, ok := firstLeaf(p); ok {
				return s, ok
			}
		}
		return 0, false
	case Repeat:
		return firstLeaf(v.E)
	case Alt:
		// Determined only if all choices start with the same leaf.
		var first int
		set := false
		for _, c := range v.Choices {
			s, ok := firstLeaf(c)
			if !ok {
				return 0, false
			}
			if set && s != first {
				return 0, false
			}
			first, set = s, true
		}
		return first, set
	}
	return 0, false
}

// LargestComposite returns the leaf count of the largest composite
// phase in the hierarchy: the body of the biggest repetition (for
// Tomcatv, the five-substep time step). Without any repetition the
// whole expression is the composite.
func LargestComposite(e Expr) int {
	best := 0
	var walk func(Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case Repeat:
			if n := LeafCount(v.E); n > best {
				best = n
			}
			walk(v.E)
		case Concat:
			for _, p := range v.Parts {
				walk(p)
			}
		case Alt:
			for _, c := range v.Choices {
				walk(c)
			}
		}
	}
	walk(e)
	if best == 0 {
		best = LeafCount(e)
	}
	return best
}
