package regexphase

import (
	"testing"

	"lpp/internal/stats"
)

// refMergeAdjacent is MergeAdjacent without the memo: every merge
// decision compiles both bodies afresh.
func refMergeAdjacent(parts []Expr) Expr {
	body := func(e Expr) Expr {
		if r, ok := e.(Repeat); ok {
			return r.E
		}
		return e
	}
	var out []Expr
	for _, e := range parts {
		if len(out) > 0 {
			if base := body(out[len(out)-1]); Equivalent(base, body(e)) {
				out[len(out)-1] = Repeat{E: base, Min: 1}
				continue
			}
		}
		out = append(out, e)
	}
	if len(out) == 1 {
		return out[0]
	}
	return Concat{out}
}

// TestMemoMergeAdjacentMatchesReference runs random part lists —
// literals, concatenations (empty ones included), alternations and
// repeats — through one long-lived memo with a budget small enough to
// reset often, and holds each result to the memo-free merge.
func TestMemoMergeAdjacentMatchesReference(t *testing.T) {
	rng := stats.NewRNG(3)
	m := NewMemo(200)
	for i := 0; i < 2000; i++ {
		parts := make([]Expr, rng.Intn(6))
		for j := range parts {
			switch {
			case j > 0 && rng.Intn(3) == 0:
				parts[j] = parts[j-1] // equal neighbours, the merge case
			case rng.Intn(8) == 0:
				parts[j] = Concat{}
			default:
				parts[j] = randomExpr(rng, 3)
			}
		}
		want := refMergeAdjacent(append([]Expr(nil), parts...)).String()
		if got := m.MergeAdjacent(parts).String(); got != want {
			t.Fatalf("case %d %v: memo merges to %s, reference %s", i, parts, got, want)
		}
	}
	if m.Resets() == 0 {
		t.Error("the memo never reset: its budget went untested")
	}
}
