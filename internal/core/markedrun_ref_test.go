package core

import (
	"lpp/internal/cache"
	"lpp/internal/marker"
	"lpp/internal/phase"
	"lpp/internal/predictor"
	"lpp/internal/trace"
)

// refPredictAllWith and refPredictStatistical are frozen copies of
// PredictAllWith and PredictStatistical from before the marked run was
// pipelined, kept as test oracles: the program runs on the caller's
// goroutine through marker.Instrumented, which forwards every access to
// the simulator one Access call at a time and calls back at each
// marker. The pipelined runs must reproduce their reports and event
// streams exactly.
func refPredictAllWith(prog trace.Runner, det *Detection, sink phase.Consumer, policies ...predictor.Policy) []*RunReport {
	sim := cache.NewDefault()
	preds := make([]*predictor.Predictor, len(policies))
	for i, p := range policies {
		preds[i] = predictor.New(p)
	}
	next := predictor.NewNextPhase(det.Hierarchy)

	emit := func(ev phase.Event) {
		if sink != nil {
			_ = sink.Consume(ev)
		}
	}

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
			for _, p := range preds {
				p.Complete(e)
			}
			execs = append(execs, e)
			emit(phase.Event{
				Kind:         phase.BoundaryDetected,
				Time:         acc,
				Instructions: instr,
				Phase:        int(cur.phase),
				Locality:     e.Locality,
			})
		} else {
			emit(phase.Event{
				Kind:         phase.BoundaryDetected,
				Time:         acc,
				Instructions: instr,
				Phase:        -1,
			})
		}
		if pred, ok := next.Predict(); ok {
			emit(phase.Event{
				Kind:         phase.PhasePredicted,
				Time:         acc,
				Instructions: instr,
				Phase:        pred,
			})
		}
		next.Observe(int(ph))
		if det.PhaseConsistent == nil || det.PhaseConsistent[ph] {
			for _, p := range preds {
				p.Begin(ph)
			}
		}
		cur = openPhase{phase: ph, startInstr: instr, startAcc: acc, snap: sim.Snapshot()}
		open = true
	}
	ins := marker.NewInstrumented(det.Selection.Markers, sim, onMarker)
	prog.Run(ins)
	if open {
		loc, _ := sim.Since(cur.snap)
		e := predictor.Execution{
			Phase:        cur.phase,
			Instructions: ins.Instructions() - cur.startInstr,
			Accesses:     ins.Accesses() - cur.startAcc,
			Locality:     loc,
			Partial:      true,
		}
		for _, p := range preds {
			p.Complete(e)
		}
		execs = append(execs, e)
	}
	emitProfiles(emit, execs, ins.Accesses(), ins.Instructions())

	inconsistent := 0
	for _, ok := range det.PhaseConsistent {
		if !ok {
			inconsistent++
		}
	}
	out := make([]*RunReport, len(policies))
	for i, p := range preds {
		out[i] = &RunReport{
			Policy:             policies[i],
			Accuracy:           p.Accuracy(),
			Coverage:           p.Coverage(ins.Instructions()),
			NextPhaseAccuracy:  next.Accuracy(),
			NextPhaseResyncs:   next.Resyncs(),
			Executions:         execs,
			PhaseLocality:      p.PhaseLocality(),
			PhaseWeights:       p.PhaseWeights(),
			PhaseLengths:       p.PhaseLengths(),
			Predictions:        p.Predictions(),
			InconsistentPhases: inconsistent,
			Instructions:       ins.Instructions(),
			Accesses:           ins.Accesses(),
		}
	}
	return out
}

func refPredictStatistical(prog trace.Runner, det *Detection) *StatReport {
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
	ins := marker.NewInstrumented(det.Selection.Markers, sim, onMarker)
	prog.Run(ins)
	if open {
		loc, _ := sim.Since(cur.snap)
		pred.Complete(predictor.Execution{
			Phase:        cur.phase,
			Instructions: ins.Instructions() - cur.startInstr,
			Accesses:     ins.Accesses() - cur.startAcc,
			Locality:     loc,
			Partial:      true,
		})
	}

	return &StatReport{
		Accuracy:     pred.Accuracy(),
		Coverage:     pred.Coverage(ins.Instructions()),
		Predictions:  pred.Predictions(),
		Executions:   execs,
		Instructions: ins.Instructions(),
		Accesses:     ins.Accesses(),
	}
}
