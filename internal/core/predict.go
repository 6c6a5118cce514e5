package core

import (
	"sort"

	"lpp/internal/cache"
	"lpp/internal/marker"
	"lpp/internal/phase"
	"lpp/internal/predictor"
	"lpp/internal/trace"
)

// RunReport summarizes one predicted (marked) execution.
type RunReport struct {
	Policy predictor.Policy

	// Accuracy is the fraction of length predictions that were
	// correct; Coverage is the fraction of the run's instructions
	// spent in predicted phase executions (Table 2).
	Accuracy float64
	Coverage float64

	// NextPhaseAccuracy scores the hierarchy automaton's next-phase
	// predictions; NextPhaseResyncs counts deviations from the
	// hierarchy.
	NextPhaseAccuracy float64
	NextPhaseResyncs  int64

	// Executions are every observed phase execution in order, with
	// measured locality.
	Executions []predictor.Execution

	// PhaseLocality and PhaseWeights feed the Table 4 statistics.
	PhaseLocality map[marker.PhaseID][]cache.Vector
	PhaseWeights  map[marker.PhaseID]int64
	PhaseLengths  map[marker.PhaseID][]int64

	// Predictions counts the length predictions actually made.
	Predictions int64

	// InconsistentPhases counts phases the detection flagged as
	// unpredictable (their executions are never predicted).
	InconsistentPhases int

	// Run totals.
	Instructions int64
	Accesses     int64
}

// Predict executes prog with the detection's markers installed (the
// binary-rewriting substitute), measuring each phase execution's
// locality with the multi-size cache simulator and scoring length
// predictions under the given policy.
func Predict(prog trace.Runner, det *Detection, policy predictor.Policy) *RunReport {
	return PredictAll(prog, det, policy)[0]
}

// PredictAll is Predict for several policies over a single execution:
// the program runs once and every policy's predictor scores the same
// stream of phase executions.
func PredictAll(prog trace.Runner, det *Detection, policies ...predictor.Policy) []*RunReport {
	return PredictAllWith(prog, det, nil, policies...)
}

// PredictAllWith is PredictAll with a phase-event tap: the events the
// predicted run already synthesizes at each marker are delivered to
// sink as the canonical phase.Event stream, so the offline pipeline
// drives the same run-time consumers as the streaming service. Per
// marker, a BoundaryDetected carries the ended execution's measured
// locality (the first marker ends the unmarked prelude as Phase -1),
// followed by a PhasePredicted when the hierarchy automaton uniquely
// determines the phase now beginning; at end of run one PhaseProfile
// per phase summarizes its total instructions and mean locality. The
// final partial execution ends at program exit, not a marker, so no
// boundary is emitted for it.
//
// Consume errors are ignored here; callers wanting per-consumer error
// isolation and counts pass a *phase.Chain. A nil sink is PredictAll.
// The run is pipelined (runMarked): the program executes on the
// caller's goroutine while the cache simulation and the per-marker
// work, sink calls included, run on one other goroutine. The calls
// never overlap and arrive in stream order, and the reports are
// identical to a strictly sequential run at every GOMAXPROCS.
func PredictAllWith(prog trace.Runner, det *Detection, sink phase.Consumer, policies ...predictor.Policy) []*RunReport {
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
			// The unmarked prelude before the first marker: consumers
			// advance their clocks past it but learn nothing.
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
		// The inconsistency flag (Section 3.1.2): phases whose
		// training behavior was input-dependent are never predicted,
		// avoiding false predictions.
		if det.PhaseConsistent == nil || det.PhaseConsistent[ph] {
			for _, p := range preds {
				p.Begin(ph)
			}
		}
		cur = openPhase{phase: ph, startInstr: instr, startAcc: acc, snap: sim.Snapshot()}
		open = true
	}
	accesses, instrs := runMarked(prog, det.Selection.Markers, sim, onMarker)
	if open {
		loc, _ := sim.Since(cur.snap)
		e := predictor.Execution{
			Phase:        cur.phase,
			Instructions: instrs - cur.startInstr,
			Accesses:     accesses - cur.startAcc,
			Locality:     loc,
			Partial:      true, // ends at program exit, not a marker
		}
		for _, p := range preds {
			p.Complete(e)
		}
		execs = append(execs, e)
	}
	emitProfiles(emit, execs, accesses, instrs)

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
			Coverage:           p.Coverage(instrs),
			NextPhaseAccuracy:  next.Accuracy(),
			NextPhaseResyncs:   next.Resyncs(),
			Executions:         execs,
			PhaseLocality:      p.PhaseLocality(),
			PhaseWeights:       p.PhaseWeights(),
			PhaseLengths:       p.PhaseLengths(),
			Predictions:        p.Predictions(),
			InconsistentPhases: inconsistent,
			Instructions:       instrs,
			Accesses:           accesses,
		}
	}
	return out
}

// emitProfiles ends the event stream with one PhaseProfile per phase,
// in ascending phase order: total instructions over the phase's
// complete executions and their mean locality. Partial executions
// include teardown code, so they are excluded as everywhere else.
func emitProfiles(emit func(phase.Event), execs []predictor.Execution, acc, instr int64) {
	type profile struct {
		instrs int64
		loc    cache.Vector
		n      int64
	}
	profiles := make(map[marker.PhaseID]*profile)
	for _, e := range execs {
		if e.Partial {
			continue
		}
		p := profiles[e.Phase]
		if p == nil {
			p = &profile{}
			profiles[e.Phase] = p
		}
		p.instrs += e.Instructions
		for i, v := range e.Locality {
			p.loc[i] += v
		}
		p.n++
	}
	ids := make([]marker.PhaseID, 0, len(profiles))
	for id := range profiles {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p := profiles[id]
		loc := p.loc
		for i := range loc {
			loc[i] /= float64(p.n)
		}
		emit(phase.Event{
			Kind:         phase.PhaseProfile,
			Time:         acc,
			Instructions: p.instrs,
			Phase:        int(id),
			Locality:     loc,
		})
	}
}

// LocalitySpread returns the instruction-weighted average spread of
// the locality vectors across recurring executions of the same phase —
// the "locality phase" column of Table 4. Two refinements mirror the
// paper's setting:
//
//   - Executions are grouped by (phase, position in the current run of
//     that phase). A program like FFT executes the same marked block
//     for every butterfly pass, but pass k of one transform matches
//     pass k of the next; the hierarchy's repetition structure (which
//     the run-time predictor tracks anyway) distinguishes them.
//   - Each group's first execution is excluded: it runs on a cold
//     cache ("the first couple of executions have slightly different
//     locality").
func (r *RunReport) LocalitySpread() float64 {
	type key struct {
		phase  marker.PhaseID
		runPos int
	}
	groups := make(map[key][]cache.Vector)
	weights := make(map[key]float64)
	var prev marker.PhaseID = -1
	runPos := 0
	for _, e := range r.Executions {
		if e.Partial {
			continue
		}
		if e.Phase == prev {
			runPos++
		} else {
			runPos = 0
			prev = e.Phase
		}
		k := key{e.Phase, runPos}
		groups[k] = append(groups[k], e.Locality)
		weights[k] += float64(e.Instructions)
	}
	// Deterministic aggregation order (floating-point sums are not
	// associative, and map iteration order varies).
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].phase != keys[j].phase {
			return keys[i].phase < keys[j].phase
		}
		return keys[i].runPos < keys[j].runPos
	})
	var gs [][]cache.Vector
	var ws []float64
	for _, k := range keys {
		g := groups[k]
		if len(g) > 1 {
			g = g[1:]
		}
		gs = append(gs, g)
		ws = append(ws, weights[k])
	}
	return cache.WeightedSpread(gs, ws)
}

// PhaseCount returns the number of distinct phases observed.
func (r *RunReport) PhaseCount() int { return len(r.PhaseLocality) }

// LeafStats summarizes phase granularity for Table 3: the number of
// leaf phase executions and the average execution length in
// instructions.
func (r *RunReport) LeafStats() (executions int, avgInstrs float64) {
	executions = len(r.Executions)
	if executions == 0 {
		return 0, 0
	}
	var sum int64
	for _, e := range r.Executions {
		sum += e.Instructions
	}
	return executions, float64(sum) / float64(executions)
}
