package regexphase

import (
	"testing"

	"lpp/internal/sequitur"
	"lpp/internal/stats"
)

// refMatch is a brute-force reference matcher: can e match s exactly?
// Exponential, for tiny test inputs only.
func refMatch(e Expr, s []int) bool {
	switch v := e.(type) {
	case Lit:
		return len(s) == 1 && s[0] == v.Sym
	case Concat:
		return refMatchConcat(v.Parts, s)
	case Alt:
		for _, c := range v.Choices {
			if refMatch(c, s) {
				return true
			}
		}
		return false
	case Repeat:
		return refMatchRepeat(v, s)
	}
	return false
}

func refMatchConcat(parts []Expr, s []int) bool {
	if len(parts) == 0 {
		return len(s) == 0
	}
	for cut := 0; cut <= len(s); cut++ {
		if refMatch(parts[0], s[:cut]) && refMatchConcat(parts[1:], s[cut:]) {
			return true
		}
	}
	return false
}

func refMatchRepeat(r Repeat, s []int) bool {
	if len(s) == 0 {
		// X* matches empty; X+ matches empty iff X does.
		return r.Min == 0 || refMatch(r.E, nil)
	}
	min := r.Min
	if min == 0 {
		min = 1 // at least one copy needed for non-empty s
	}
	// Match min..len(s) copies via splitting.
	var try func(copies int, s []int) bool
	try = func(copies int, s []int) bool {
		if copies == 0 {
			return len(s) == 0
		}
		for cut := 1; cut <= len(s); cut++ {
			if refMatch(r.E, s[:cut]) && try(copies-1, s[cut:]) {
				return true
			}
		}
		// Also allow more copies than min by re-entering with the
		// same count after consuming one copy: handled by the
		// copies>=1 loop below.
		return false
	}
	for copies := min; copies <= len(s); copies++ {
		if try(copies, s) {
			return true
		}
	}
	return false
}

func TestExprString(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{Lit{3}, "3"},
		{Seq(1, 2, 3), "1 2 3"},
		{Repeat{Seq(1, 2), 1}, "(1 2)+"},
		{Repeat{Lit{5}, 0}, "5*"},
		{Repeat{Lit{1}, 3}, "1{3,}"},
		{Alt{[]Expr{Lit{1}, Lit{2}}}, "(1 | 2)"},
		{Concat{}, "ε"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestAlphabet(t *testing.T) {
	e := Concat{[]Expr{Repeat{Seq(3, 1), 1}, Alt{[]Expr{Lit{2}, Lit{1}}}}}
	got := Alphabet(e)
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Alphabet = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Alphabet = %v, want %v", got, want)
		}
	}
}

func TestCompileMatchesBasics(t *testing.T) {
	e := Repeat{Seq(1, 2, 3, 4, 5), 1} // the Tomcatv hierarchy shape
	d := Compile(e)
	if !d.Matches([]int{1, 2, 3, 4, 5}) {
		t.Error("one time step should match")
	}
	if !d.Matches([]int{1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 1, 2, 3, 4, 5}) {
		t.Error("three time steps should match")
	}
	if d.Matches([]int{1, 2, 3, 4}) {
		t.Error("partial step should not match")
	}
	if d.Matches(nil) {
		t.Error("empty should not match a plus")
	}
	if d.Matches([]int{1, 2, 3, 4, 5, 9}) {
		t.Error("unknown symbol should not match")
	}
}

func TestCompileAlt(t *testing.T) {
	e := Alt{[]Expr{Seq(1, 2), Seq(3)}}
	d := Compile(e)
	if !d.Matches([]int{1, 2}) || !d.Matches([]int{3}) {
		t.Error("alternatives should match")
	}
	if d.Matches([]int{1, 3}) || d.Matches([]int{1}) {
		t.Error("non-members should not match")
	}
}

func TestCompileStarMatchesEmpty(t *testing.T) {
	d := Compile(Repeat{Lit{1}, 0})
	if !d.Matches(nil) {
		t.Error("star should match empty")
	}
	if !d.Matches([]int{1, 1, 1}) {
		t.Error("star should match repetitions")
	}
}

func randomExpr(rng *stats.RNG, depth int) Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		return Lit{rng.Intn(3)}
	}
	switch rng.Intn(3) {
	case 0:
		return Concat{[]Expr{randomExpr(rng, depth-1), randomExpr(rng, depth-1)}}
	case 1:
		return Alt{[]Expr{randomExpr(rng, depth-1), randomExpr(rng, depth-1)}}
	default:
		return Repeat{randomExpr(rng, depth-1), rng.Intn(2)}
	}
}

func TestCompileAgainstReference(t *testing.T) {
	rng := stats.NewRNG(11)
	for trial := 0; trial < 200; trial++ {
		e := randomExpr(rng, 3)
		d := Compile(e)
		for s := 0; s < 20; s++ {
			n := rng.Intn(6)
			seq := make([]int, n)
			for i := range seq {
				seq[i] = rng.Intn(3)
			}
			if d.Matches(seq) != refMatch(e, seq) {
				t.Fatalf("mismatch for %v on %v: dfa=%v ref=%v",
					e, seq, d.Matches(seq), refMatch(e, seq))
			}
		}
	}
}

func TestMinimizePreservesLanguage(t *testing.T) {
	rng := stats.NewRNG(13)
	for trial := 0; trial < 100; trial++ {
		e := randomExpr(rng, 3)
		d := Compile(e)
		m := Minimize(d)
		if !EquivalentDFA(d, m) {
			t.Fatalf("Minimize changed the language of %v\nbefore:\n%s\nafter:\n%s", e, d, m)
		}
		if m.NumStates() > d.NumStates() {
			t.Fatalf("Minimize grew %d -> %d states for %v", d.NumStates(), m.NumStates(), e)
		}
		// Idempotence.
		m2 := Minimize(m)
		if m2.NumStates() != m.NumStates() {
			t.Fatalf("Minimize not idempotent for %v: %d -> %d", e, m.NumStates(), m2.NumStates())
		}
	}
}

func TestMinimizeKnownSize(t *testing.T) {
	// (1 2 3)+ has a minimal DFA of exactly 4 states: the rejecting
	// start plus one state per position in the step (the accepting
	// end-of-step state loops back on 1).
	m := Minimize(Compile(Repeat{Seq(1, 2, 3), 1}))
	if m.NumStates() != 4 {
		t.Errorf("minimal DFA for (1 2 3)+ has %d states, want 4\n%s", m.NumStates(), m)
	}
	// 1* is a single accepting state.
	m = Minimize(Compile(Repeat{Lit{1}, 0}))
	if m.NumStates() != 1 {
		t.Errorf("minimal DFA for 1* has %d states, want 1", m.NumStates())
	}
}

func TestEquivalentKnownPairs(t *testing.T) {
	equal := [][2]Expr{
		{Repeat{Seq(1, 2), 1}, Concat{[]Expr{Seq(1, 2), Repeat{Seq(1, 2), 0}}}}, // X+ == X X*
		{Alt{[]Expr{Lit{1}, Lit{2}}}, Alt{[]Expr{Lit{2}, Lit{1}}}},              // commutativity
		{Seq(1, 2, 3), Concat{[]Expr{Seq(1), Seq(2, 3)}}},                       // associativity
		{Repeat{Repeat{Lit{1}, 1}, 1}, Repeat{Lit{1}, 1}},                       // (X+)+ == X+
	}
	for _, p := range equal {
		if !Equivalent(p[0], p[1]) {
			t.Errorf("%v and %v should be equivalent", p[0], p[1])
		}
	}
	notEqual := [][2]Expr{
		{Repeat{Seq(1, 2), 1}, Repeat{Seq(1, 2), 0}}, // plus vs star
		{Seq(1, 2), Seq(2, 1)},
		{Lit{1}, Lit{2}},
		{Seq(1), Seq(1, 1)},
	}
	for _, p := range notEqual {
		if Equivalent(p[0], p[1]) {
			t.Errorf("%v and %v should differ", p[0], p[1])
		}
	}
}

func TestEquivalentDisjointAlphabets(t *testing.T) {
	if Equivalent(Lit{1}, Lit{9}) {
		t.Error("literals over different symbols should differ")
	}
}

func TestEquivalentAgainstReference(t *testing.T) {
	// Property: if the DFAs agree with refMatch (already tested),
	// Equivalent(a,b) must equal "same acceptance on all short
	// strings" for random pairs, modulo strings longer than probed —
	// use the DFA product to cross-check on all strings up to len 6.
	rng := stats.NewRNG(17)
	alphabet := []int{0, 1, 2}
	var seqs [][]int
	var gen func(prefix []int, n int)
	gen = func(prefix []int, n int) {
		cp := append([]int(nil), prefix...)
		seqs = append(seqs, cp)
		if n == 0 {
			return
		}
		for _, s := range alphabet {
			gen(append(prefix, s), n-1)
		}
	}
	gen(nil, 5)
	for trial := 0; trial < 60; trial++ {
		a, b := randomExpr(rng, 2), randomExpr(rng, 2)
		da, db := Compile(a), Compile(b)
		agree := true
		for _, s := range seqs {
			if da.Matches(s) != db.Matches(s) {
				agree = false
				break
			}
		}
		eq := Equivalent(a, b)
		if eq && !agree {
			t.Fatalf("Equivalent says equal but strings differ: %v vs %v", a, b)
		}
		// agree && !eq is possible only for differences beyond
		// length 5; with depth-2 expressions the pumping length is
		// small, so treat it as a failure too.
		if agree && !eq {
			t.Fatalf("Equivalent says different but all strings <=5 agree: %v vs %v", a, b)
		}
	}
}

func TestFromGrammarTimeSteps(t *testing.T) {
	// 20 Tomcatv-like time steps of 5 sub-phases compress to a
	// hierarchy equivalent to (1 2 3 4 5)+.
	var seq []int
	for i := 0; i < 20; i++ {
		seq = append(seq, 1, 2, 3, 4, 5)
	}
	h := BuildHierarchy(seq)
	want := Repeat{Seq(1, 2, 3, 4, 5), 1}
	if !Equivalent(h, want) {
		t.Errorf("hierarchy = %v, want equivalent to %v", h, want)
	}
}

func TestFromGrammarPowerOfTwoRepetition(t *testing.T) {
	// 2^k repetitions produce nested SEQUITUR rules; the hierarchy
	// must still collapse to a single plus.
	var seq []int
	for i := 0; i < 64; i++ {
		seq = append(seq, 7, 8)
	}
	h := BuildHierarchy(seq)
	want := Repeat{Seq(7, 8), 1}
	if !Equivalent(h, want) {
		t.Errorf("hierarchy = %v, want equivalent to %v", h, want)
	}
}

func TestFromGrammarPrefixAndSteps(t *testing.T) {
	// An initialization phase followed by repeated steps: 0 (1 2)+.
	seq := []int{0}
	for i := 0; i < 30; i++ {
		seq = append(seq, 1, 2)
	}
	h := BuildHierarchy(seq)
	if !Compile(h).Matches(seq) {
		t.Errorf("hierarchy %v does not match its own training sequence", h)
	}
	longer := append([]int{0}, seq[1:]...)
	longer = append(longer, 1, 2, 1, 2)
	if !Compile(h).Matches(longer) {
		t.Errorf("hierarchy %v should generalize to more steps", h)
	}
}

func TestHierarchyMatchesTrainingSequence(t *testing.T) {
	// Property: the hierarchy always matches the sequence it was
	// built from.
	rng := stats.NewRNG(23)
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(80)
		seq := make([]int, n)
		for i := range seq {
			seq[i] = rng.Intn(4)
		}
		h := BuildHierarchy(seq)
		if !Compile(h).Matches(seq) {
			g := sequitur.Build(seq)
			t.Fatalf("hierarchy %v does not match %v\ngrammar:\n%s", h, seq, g)
		}
	}
}

func TestMergeAdjacent(t *testing.T) {
	// X X -> X+
	m := MergeAdjacent([]Expr{Seq(1, 2), Seq(1, 2)})
	if !Equivalent(m, Repeat{Seq(1, 2), 1}) {
		t.Errorf("X X = %v, want (1 2)+", m)
	}
	// X+ X -> X+
	m = MergeAdjacent([]Expr{Repeat{Seq(1, 2), 1}, Seq(1, 2)})
	if !Equivalent(m, Repeat{Seq(1, 2), 1}) {
		t.Errorf("X+ X = %v, want (1 2)+", m)
	}
	// X Y stays a concat.
	m = MergeAdjacent([]Expr{Seq(1), Seq(2)})
	if !Equivalent(m, Seq(1, 2)) {
		t.Errorf("X Y = %v, want 1 2", m)
	}
	// Single part unwrapped.
	if _, ok := MergeAdjacent([]Expr{Lit{4}}).(Lit); !ok {
		t.Error("single part should be returned unwrapped")
	}
}

func TestLeaves(t *testing.T) {
	h := Repeat{Seq(3, 1, 2), 1}
	l := Alphabet(h)
	if len(l) != 3 || l[0] != 1 || l[2] != 3 {
		t.Errorf("Alphabet = %v", l)
	}
}

func BenchmarkBuildHierarchy(b *testing.B) {
	var seq []int
	for i := 0; i < 1000; i++ {
		seq = append(seq, 1, 2, 3, 4, 5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildHierarchy(seq)
	}
}
