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

	var execs []predictor.Execution
	t := execTracker{sim: sim}
	onMarker := func(ph marker.PhaseID, acc, instr int64) {
		if e, ok := t.end(acc, instr, false); ok {
			pred.Complete(e)
			execs = append(execs, e)
		}
		pred.Begin(ph)
		t.begin(ph, acc, instr)
	}
	accesses, instrs := runMarked(prog, det.Selection.Markers, sim, onMarker)
	if e, ok := t.end(accesses, instrs, true); ok {
		pred.Complete(e)
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
