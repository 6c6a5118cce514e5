package marker

import (
	"math"
	"testing"

	"lpp/internal/trace"
)

// fragmented builds a trace where a spurious block (more frequent than
// the real substep headers, like a rare inner-loop path) chops one
// phase's regions into irregular pieces once the cutoff admits it.
func fragmented(steps int) *trace.Recorded {
	r := trace.NewRecorder(0, 0)
	for s := 0; s < steps; s++ {
		r.Block(10, 3)        // substep A header (freq = steps)
		spur := map[int]bool{ // data-dependent, irregular positions
			(11*s + 13) % 100: true,
			(37*s + 59) % 100: true,
			(71*s + 5) % 100:  true,
		}
		for b := 0; b < 100; b++ {
			r.Block(100, 50)
			if spur[b] { // spurious path, freq ≈ 3*steps
				r.Block(99, 2)
			}
		}
		r.Block(11, 3) // substep B header
		for b := 0; b < 100; b++ {
			r.Block(101, 50)
		}
	}
	return &r.T
}

func TestSelectBestRejectsFragmentingMarker(t *testing.T) {
	tr := fragmented(8)
	// Detection overcounted boundaries (say 39), so the naive cutoff
	// of 40 admits the spurious block 99 (freq 24); the cutoff
	// search must find the selection without it.
	sel, err := SelectBest(tr, make([]int64, 39), Config{BlankThreshold: 500})
	if err != nil {
		t.Fatal(err)
	}
	if _, bad := sel.Markers[99]; bad {
		t.Errorf("fragmenting block selected as marker: %v", sel.Markers)
	}
	if sel.PhaseCount != 2 {
		t.Errorf("phases = %d, want 2", sel.PhaseCount)
	}
	if got := len(sel.Regions); got != 16 {
		t.Errorf("regions = %d, want 16", got)
	}
}

func TestSelectBestRareFragmenterIsRegrouped(t *testing.T) {
	// The paper's acknowledged limitation: a fragmenting block
	// *rarer* than the real markers cannot be excluded by any
	// frequency cutoff — "a phase may be fragmented by infrequently
	// executed code blocks. However, a false marker cannot divide a
	// phase more than f times" — and the hierarchy regroups the
	// partial phases. Pin that contract: region count stays bounded
	// and both real markers survive.
	r := trace.NewRecorder(0, 0)
	steps := 8
	for s := 0; s < steps; s++ {
		r.Block(10, 3)
		for b := 0; b < 100; b++ {
			r.Block(100, 50)
			if s%2 == 0 && b == 30+7*s { // rare (freq steps/2), uneven
				r.Block(99, 2)
			}
		}
		r.Block(11, 3)
		for b := 0; b < 100; b++ {
			r.Block(101, 50)
		}
	}
	sel, err := SelectBest(&r.T, make([]int64, 15), Config{BlankThreshold: 500})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sel.Markers[10]; !ok {
		t.Error("real marker 10 lost")
	}
	if _, ok := sel.Markers[11]; !ok {
		t.Error("real marker 11 lost")
	}
	// f = 16; the false marker fired 4 times, so at most 4 extra
	// regions: 16 real + 4 fragments.
	if got := len(sel.Regions); got > 20 {
		t.Errorf("regions = %d, want <= 20 (bounded fragmentation)", got)
	}
}

func TestSelectBestErrorWhenNothingViable(t *testing.T) {
	r := trace.NewRecorder(0, 0)
	r.Block(1, 10)
	if _, err := SelectBest(&r.T, nil, Config{BlankThreshold: 1000}); err == nil {
		t.Error("expected error for a trace with no regions")
	}
}

func TestCoverage(t *testing.T) {
	sel := Selection{Regions: []Region{
		{StartInstr: 0, EndInstr: 400},
		{StartInstr: 500, EndInstr: 900},
	}}
	if got := sel.Coverage(1000); got != 0.8 {
		t.Errorf("Coverage = %g, want 0.8", got)
	}
	if sel.Coverage(0) != 0 {
		t.Error("zero-length run coverage should be 0")
	}
}

func TestLengthIrregularity(t *testing.T) {
	regular := Selection{Regions: []Region{
		{Phase: 0, StartInstr: 0, EndInstr: 100},
		{Phase: 0, StartInstr: 100, EndInstr: 200},
	}}
	if got := regular.MaxLengthIrregularity(); got != 0 {
		t.Errorf("regular irregularity = %g, want 0", got)
	}
	irregular := Selection{Regions: []Region{
		{Phase: 0, StartInstr: 0, EndInstr: 10},
		{Phase: 0, StartInstr: 10, EndInstr: 1000},
	}}
	if got := irregular.MaxLengthIrregularity(); got < 0.5 {
		t.Errorf("irregular irregularity = %g, want large", got)
	}
	if (Selection{}).MaxLengthIrregularity() != 0 {
		t.Error("empty selection should be 0")
	}
	// A regular phase dominates the instructions; the short phase's
	// lengths 10 and 30 have CV 0.5. The instruction-weighted mean CV
	// would be 0.5·40/240 ≈ 0.083; the worst phase's CV is 0.5.
	mixed := Selection{Regions: []Region{
		{Phase: 0, StartInstr: 0, EndInstr: 100},
		{Phase: 1, StartInstr: 100, EndInstr: 110},
		{Phase: 0, StartInstr: 110, EndInstr: 210},
		{Phase: 1, StartInstr: 210, EndInstr: 240},
	}}
	if got := mixed.MaxLengthIrregularity(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("two-phase irregularity = %g, want the worst phase's 0.5", got)
	}
}

func TestSelectFrequencyOverride(t *testing.T) {
	tr := fragmented(8)
	// Frequency 1: only blocks executing once qualify; nothing does,
	// so selection fails cleanly through SelectBest's search too.
	sel, err := Select(tr, nil, Config{BlankThreshold: 500, Frequency: 8})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Frequency != 8 {
		t.Errorf("Frequency = %d, want 8", sel.Frequency)
	}
}
