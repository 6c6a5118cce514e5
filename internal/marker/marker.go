// Package marker selects phase-marker basic blocks (Section 2.3) and
// provides the run-time instrumentation that stands in for the paper's
// binary rewriting. Phase detection knows how many phases there are
// but not the precise transition times; marker selection recovers the
// positions from the block trace by frequency: a block can mark a
// phase of frequency f only if it executes no more than f times. After
// frequency filtering, long blank regions of the block trace are the
// phase executions, and the candidate block preceding each region
// identifies — and at run time marks — that phase.
package marker

import (
	"fmt"
	"math"
	"sort"

	"lpp/internal/trace"
)

// PhaseID identifies a detected leaf phase. IDs are dense, assigned in
// order of first appearance in the training run.
type PhaseID int

// Config controls marker selection.
type Config struct {
	// BlankThreshold is the minimum dynamic-instruction length of a
	// blank region for it to count as a phase execution. The paper
	// uses 10K instructions for training runs of at least 3.5M
	// accesses (~0.3% of the execution).
	BlankThreshold int64
	// FreqSlack scales the frequency cutoff; 1.0 reproduces the
	// paper's "no more than f times" rule.
	FreqSlack float64
	// Frequency overrides the phase-frequency cutoff directly when
	// positive (otherwise the cutoff is len(boundaries)+1).
	Frequency int
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{BlankThreshold: 10000, FreqSlack: 1.0}
}

// Region is one phase execution found in the filtered block trace.
type Region struct {
	// Marker is the candidate block that immediately precedes the
	// region; it identifies the phase and marks it at run time.
	Marker trace.BlockID
	// Phase is the dense phase ID assigned to Marker.
	Phase PhaseID
	// Instruction and logical-time extents of the region.
	StartInstr, EndInstr   int64
	StartAccess, EndAccess int64
}

// Selection is the result of marker selection.
type Selection struct {
	// Markers maps each marker block to the phase it begins.
	Markers map[trace.BlockID]PhaseID
	// PhaseCount is the number of distinct phases marked.
	PhaseCount int
	// Regions are the phase executions of the training run, in time
	// order.
	Regions []Region
	// Frequency is the phase-frequency cutoff f used for filtering.
	Frequency int
}

// Select picks phase markers from a recorded training trace given the
// phase boundaries found by optimal phase partitioning (their count
// sets the frequency cutoff f).
func Select(t *trace.Recorded, boundaries []int64, cfg Config) (Selection, error) {
	if len(t.Blocks) == 0 {
		return Selection{}, fmt.Errorf("marker: empty block trace")
	}
	if cfg.BlankThreshold <= 0 {
		cfg.BlankThreshold = DefaultConfig().BlankThreshold
	}
	if cfg.FreqSlack <= 0 {
		cfg.FreqSlack = 1.0
	}
	f := len(boundaries) + 1
	if cfg.Frequency > 0 {
		f = cfg.Frequency
	}
	cutoff := int(float64(f) * cfg.FreqSlack)
	if cutoff < 1 {
		cutoff = 1
	}

	// Frequency filter: keep only blocks rare enough to be markers.
	freq := t.BlockFrequency()
	kept := make([]int, 0, 64) // indices into t.Blocks
	for i, b := range t.Blocks {
		if freq[b.ID] <= cutoff {
			kept = append(kept, i)
		}
	}

	// Blank regions between consecutive kept blocks (and after the
	// last one) that exceed the threshold are phase executions.
	sel := Selection{Markers: make(map[trace.BlockID]PhaseID), Frequency: cutoff}
	// endOf returns where block execution i ends: the start of the
	// following block execution, or the end of the run.
	endOf := func(i int) (instr, acc int64) {
		if i+1 < len(t.Blocks) {
			return t.Blocks[i+1].InstrIndex, t.Blocks[i+1].AccessIndex
		}
		return t.Instructions, int64(len(t.Accesses))
	}
	addRegion := func(markerIdx int, startInstr, startAcc, endInstr, endAcc int64) {
		if endInstr-startInstr < cfg.BlankThreshold {
			return
		}
		id := t.Blocks[markerIdx].ID
		ph, ok := sel.Markers[id]
		if !ok {
			ph = PhaseID(sel.PhaseCount)
			sel.PhaseCount++
			sel.Markers[id] = ph
		}
		sel.Regions = append(sel.Regions, Region{
			Marker:      id,
			Phase:       ph,
			StartInstr:  startInstr,
			EndInstr:    endInstr,
			StartAccess: startAcc,
			EndAccess:   endAcc,
		})
	}

	if len(kept) == 0 {
		return Selection{}, fmt.Errorf("marker: no candidate blocks under frequency cutoff %d", cutoff)
	}
	// Prelude before the first candidate is unmarked; skip it rather
	// than inventing a marker (the run-time predictor simply does
	// not predict it).
	for ki, idx := range kept {
		startInstr, startAcc := endOf(idx)
		var endInstr, endAcc int64
		if ki+1 < len(kept) {
			nb := t.Blocks[kept[ki+1]]
			endInstr, endAcc = nb.InstrIndex, nb.AccessIndex
		} else {
			endInstr, endAcc = t.Instructions, int64(len(t.Accesses))
		}
		addRegion(idx, startInstr, startAcc, endInstr, endAcc)
	}
	if len(sel.Regions) == 0 {
		return Selection{}, fmt.Errorf("marker: no blank regions above threshold %d", cfg.BlankThreshold)
	}
	return sel, nil
}

// Coverage returns the fraction of the training run's instructions
// covered by the selection's phase regions.
func (s Selection) Coverage(totalInstrs int64) float64 {
	if totalInstrs == 0 {
		return 0
	}
	var sum int64
	for _, r := range s.Regions {
		sum += r.EndInstr - r.StartInstr
	}
	return float64(sum) / float64(totalInstrs)
}

// MaxLengthIrregularity measures how erratically the selection's
// phases repeat: the largest, over phases, coefficient of variation of
// a phase's region lengths. Real locality phases recur with (nearly)
// the same length; a false marker fragments a phase into pieces of
// different sizes and drives this up, even when regular phases cover
// most of the run's instructions.
func (s Selection) MaxLengthIrregularity() float64 {
	type agg struct {
		n, sum, sumSq float64
	}
	per := make(map[PhaseID]*agg)
	for _, r := range s.Regions {
		a := per[r.Phase]
		if a == nil {
			a = &agg{}
			per[r.Phase] = a
		}
		l := float64(r.EndInstr - r.StartInstr)
		a.n++
		a.sum += l
		a.sumSq += l * l
	}
	worst := 0.0
	for _, a := range per {
		mean := a.sum / a.n
		if mean <= 0 {
			continue
		}
		variance := a.sumSq/a.n - mean*mean
		if variance < 0 {
			variance = 0
		}
		if cv := math.Sqrt(variance) / mean; cv > worst {
			worst = cv
		}
	}
	return worst
}

// SelectBest runs Select over descending frequency cutoffs (f, f/2,
// f/4, ... down to 2) and returns the best selection — the paper's
// rule of picking markers that mark "most if not all executions of the
// phases". Selections are ranked by coverage of the run, then by how
// regularly their phases repeat (a hot block that sneaks under a loose
// cutoff fragments phases into irregular pieces), then by granularity
// (finer is better when everything else ties).
func SelectBest(t *trace.Recorded, boundaries []int64, cfg Config) (Selection, error) {
	f := len(boundaries) + 1
	if cfg.Frequency > 0 {
		f = cfg.Frequency
	}
	var best Selection
	bestCov, bestIrr, bestDist := -1.0, 0.0, 0.0
	var firstErr error
	// ratioDist measures how far a selection's execution count is
	// from what phase detection saw: boundaries+1 executions. A
	// fragmenting marker inflates the count; an over-strict cutoff
	// collapses it.
	ratioDist := func(regions int) float64 {
		r := float64(regions) / float64(f)
		return math.Abs(math.Log(r))
	}
	for cutoff := f; cutoff >= 2; cutoff /= 2 {
		c := cfg
		c.Frequency = cutoff
		sel, err := Select(t, boundaries, c)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		cov := sel.Coverage(t.Instructions)
		irr := sel.MaxLengthIrregularity()
		dist := ratioDist(len(sel.Regions))
		covTie := cov > bestCov-0.05
		// Irregularity only decides when the difference is dramatic:
		// wildly fragmented phases (a false marker at data-dependent
		// positions) versus regular ones. Mild variation is genuine
		// program behavior (MolDyn) and must not veto granularity.
		irrTie := irr < bestIrr+0.5
		distTie := dist < bestDist+0.1
		switch {
		case cov > bestCov+0.05,
			covTie && irr < bestIrr-0.5,
			covTie && irrTie && dist < bestDist-0.1,
			covTie && irrTie && distTie && sel.PhaseCount > best.PhaseCount:
			best, bestCov, bestIrr, bestDist = sel, cov, irr, dist
		}
	}
	if bestCov < 0 {
		if firstErr == nil {
			firstErr = fmt.Errorf("marker: no viable cutoff")
		}
		return Selection{}, firstErr
	}
	return best, nil
}

// PhaseSequence returns the training run's phase IDs in execution
// order — the input to hierarchy construction.
func (s Selection) PhaseSequence() []int {
	out := make([]int, len(s.Regions))
	for i, r := range s.Regions {
		out[i] = int(r.Phase)
	}
	return out
}

// MarkerTimes returns the logical times (access counts) at which
// markers fired in the training run, sorted — comparable against
// manual markers with stats.RecallPrecision.
func (s Selection) MarkerTimes() []int64 {
	out := make([]int64, 0, len(s.Regions))
	for _, r := range s.Regions {
		out = append(out, r.StartAccess)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
