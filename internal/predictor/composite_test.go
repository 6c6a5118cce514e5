package predictor

import (
	"testing"

	"lpp/internal/regexphase"
)

var (
	// molDyn is (0 (1 2)+)+.
	molDyn = regexphase.Repeat{E: regexphase.Concat{Parts: []regexphase.Expr{
		regexphase.Lit{Sym: 0}, regexphase.Repeat{E: regexphase.Seq(1, 2), Min: 1}}}, Min: 1}
	// prefixed is 9 (1 2)+.
	prefixed = regexphase.Concat{Parts: []regexphase.Expr{
		regexphase.Lit{Sym: 9}, regexphase.Repeat{E: regexphase.Seq(1, 2), Min: 1}}}
)

func TestCompositeTriggerTimeSteps(t *testing.T) {
	// Tomcatv hierarchy: the trigger fires once per five-substep
	// time step.
	h := regexphase.Repeat{E: regexphase.Seq(0, 1, 2, 3, 4), Min: 1}
	var fired []int64
	c := NewCompositeTrigger(h, func(n int64) { fired = append(fired, n) })
	if !c.Valid() {
		t.Fatal("trigger should be valid")
	}
	for step := 0; step < 4; step++ {
		for ph := 0; ph < 5; ph++ {
			c.Observe(ph)
		}
	}
	if c.Fires() != 4 {
		t.Errorf("fires = %d, want 4", c.Fires())
	}
	for i, n := range fired {
		if n != int64(i) {
			t.Errorf("occurrence %d reported as %d", i, n)
		}
	}
}

func TestCompositeTriggerNestedHierarchy(t *testing.T) {
	// MolDyn hierarchy (0 (1 2)+)+: the largest composite body is
	// "0 (1 2)+", so the trigger fires at each neighbor-list rebuild
	// — exactly when dynamic data packing should reorganize.
	c := NewCompositeTrigger(molDyn, nil)
	seq := []int{0, 1, 2, 1, 2, 1, 2, 0, 1, 2, 1, 2}
	for _, ph := range seq {
		c.Observe(ph)
	}
	if c.Fires() != 2 {
		t.Errorf("fires = %d, want 2 (one per rebuild)", c.Fires())
	}
}

func TestCompositeTriggerPrefixedHierarchy(t *testing.T) {
	// "9 (1 2)+": initialization phase 9 is outside the composite.
	c := NewCompositeTrigger(prefixed, nil)
	for _, ph := range []int{9, 1, 2, 1, 2, 1, 2} {
		c.Observe(ph)
	}
	if c.Fires() != 3 {
		t.Errorf("fires = %d, want 3", c.Fires())
	}
}

func TestCompositeTriggerAmbiguous(t *testing.T) {
	// (1 | 2)+: no determined first leaf — never fires, flags invalid.
	h := regexphase.Repeat{E: regexphase.Alt{Choices: []regexphase.Expr{
		regexphase.Lit{Sym: 1}, regexphase.Lit{Sym: 2}}}, Min: 1}
	c := NewCompositeTrigger(h, nil)
	if c.Valid() {
		t.Error("ambiguous hierarchy should be invalid")
	}
	c.Observe(1)
	if c.Fires() != 0 {
		t.Error("invalid trigger must not fire")
	}
}

func TestFirstLeafOfLargestComposite(t *testing.T) {
	cases := []struct {
		in   regexphase.Expr
		leaf int
		ok   bool
	}{
		{regexphase.Repeat{E: regexphase.Seq(0, 1, 2, 3, 4), Min: 1}, 0, true},
		{prefixed, 1, true},
		{molDyn, 0, true},
		{regexphase.Lit{Sym: 7}, 7, true},
	}
	for _, c := range cases {
		leaf, ok := regexphase.FirstLeafOfLargestComposite(c.in)
		if ok != c.ok || (ok && leaf != c.leaf) {
			t.Errorf("%q: leaf=%d ok=%v, want %d %v", c.in, leaf, ok, c.leaf, c.ok)
		}
	}
}
