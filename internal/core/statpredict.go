package core

import (
	"lpp/internal/cache"
	"lpp/internal/marker"
	"lpp/internal/predictor"
	"lpp/internal/trace"
)

// StatReport summarizes a statistically predicted execution.
type StatReport struct {
	// Accuracy is the fraction of interval predictions that captured
	// the actual execution length.
	Accuracy float64
	// Coverage is the fraction of the run's instructions spent in
	// predicted executions.
	Coverage float64
	// Predictions counts interval predictions made.
	Predictions int64
	// Executions are the observed phase executions.
	Executions []predictor.Execution
	// Run totals.
	Instructions int64
	Accesses     int64
}

// PredictStatistical runs prog with markers installed and the
// distribution-based predictor of Section 3.1.2's future-work
// direction. Unlike Predict it also predicts phases flagged
// inconsistent: an interval prediction ("this phase will run
// 1.1M ± 0.4M instructions") stays honest where an exact prediction
// would be false, which is precisely what input-dependent programs
// like Gcc need.
func PredictStatistical(prog trace.Runner, det *Detection) *StatReport {
	sim := cache.NewDefault()
	pred := predictor.NewStatistical()

	type openPhase struct {
		phase      marker.PhaseID
		startInstr int64
		startAcc   int64
		snap       cache.Snapshot
	}
	var cur openPhase
	open := false
	var execs []predictor.Execution

	onMarker := func(ph marker.PhaseID, acc, instr int64) {
		if open {
			loc, _ := sim.Since(cur.snap)
			e := predictor.Execution{
				Phase:        cur.phase,
				Instructions: instr - cur.startInstr,
				Accesses:     acc - cur.startAcc,
				Locality:     loc,
			}
			pred.Complete(e)
			execs = append(execs, e)
		}
		pred.Begin(ph)
		cur = openPhase{phase: ph, startInstr: instr, startAcc: acc, snap: sim.Snapshot()}
		open = true
	}
	accesses, instrs := runMarked(prog, det.Selection.Markers, sim, onMarker)
	if open {
		loc, _ := sim.Since(cur.snap)
		pred.Complete(predictor.Execution{
			Phase:        cur.phase,
			Instructions: instrs - cur.startInstr,
			Accesses:     accesses - cur.startAcc,
			Locality:     loc,
			Partial:      true,
		})
	}

	return &StatReport{
		Accuracy:     pred.Accuracy(),
		Coverage:     pred.Coverage(instrs),
		Predictions:  pred.Predictions(),
		Executions:   execs,
		Instructions: instrs,
		Accesses:     accesses,
	}
}
