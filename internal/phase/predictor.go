package phase

import (
	"fmt"

	"lpp/internal/codec"
	"lpp/internal/marker"
	"lpp/internal/predictor"
)

// PredictorConsumer wraps predictor.Predictor as a bus consumer: every
// boundary that ends an identified phase becomes one observed
// execution, and the predictor learns lengths and locality exactly as
// it does on the offline path.
//
// The offline path calls Begin when a phase starts and Complete when
// it ends; on the bus only the ending boundary is visible, so the
// consumer issues Begin immediately followed by Complete there. The
// two orderings are equivalent: between a phase's Begin and its
// Complete the offline path never touches that phase's history (phases
// do not nest), so deferring Begin to the ending boundary changes no
// prediction and no score.
type PredictorConsumer struct {
	policy predictor.Policy
	pred   *predictor.Predictor

	// inconsistent suppresses Begin for phases whose behavior the
	// offline detector found unstable, mirroring core.Predict's
	// PhaseConsistent gate. Configuration, not snapshotted state.
	inconsistent map[int]bool

	prevTime  int64
	prevInstr int64

	// predicted is the phase the bus announced as beginning the
	// current segment, or -1; it is scored against the phase the next
	// boundary reports as ended.
	predicted  int64
	predHits   int64
	predMisses int64
}

// NewPredictorConsumer returns a predictor consumer with the given
// policy.
func NewPredictorConsumer(policy predictor.Policy) *PredictorConsumer {
	return &PredictorConsumer{
		policy:       policy,
		pred:         predictor.New(policy),
		inconsistent: make(map[int]bool),
		predicted:    -1,
	}
}

// MarkInconsistent suppresses predictions for one phase, mirroring the
// offline pipeline's phase-consistency gate. Call before consuming.
func (c *PredictorConsumer) MarkInconsistent(phase int) { c.inconsistent[phase] = true }

// Predictor exposes the wrapped predictor for reports and tests.
func (c *PredictorConsumer) Predictor() *predictor.Predictor { return c.pred }

// NextPhaseHits returns how many bus-level next-phase announcements
// matched the phase that actually ran, and how many did not.
func (c *PredictorConsumer) NextPhaseHits() (hits, misses int64) {
	return c.predHits, c.predMisses
}

// Name implements Consumer.
func (c *PredictorConsumer) Name() string { return "predictor" }

// Consume implements Consumer.
func (c *PredictorConsumer) Consume(ev Event) error {
	switch ev.Kind {
	case BoundaryDetected:
		instrs := ev.Instructions - c.prevInstr
		accesses := ev.Time - c.prevTime
		c.prevInstr, c.prevTime = ev.Instructions, ev.Time
		if c.predicted >= 0 {
			if int(c.predicted) == ev.Phase {
				c.predHits++
			} else {
				c.predMisses++
			}
			c.predicted = -1
		}
		if ev.Phase < 0 {
			// Unidentified segment (offline prelude): the clock moved
			// but there is nothing to learn from.
			return nil
		}
		if !c.inconsistent[ev.Phase] {
			c.pred.Begin(marker.PhaseID(ev.Phase))
		}
		c.pred.Complete(predictor.Execution{
			Phase:        marker.PhaseID(ev.Phase),
			Instructions: instrs,
			Accesses:     accesses,
			Locality:     ev.Locality,
		})
	case PhasePredicted:
		c.predicted = int64(ev.Phase)
	case PhaseProfile:
		// Profiles restate what the boundaries already taught.
	}
	return nil
}

// WarmStart seeds the predictor's per-phase histories from knowledge a
// previous session of the same program learned, so a policy that needs
// repeated observations (Strict requires a phase's last two lengths to
// agree) can predict at the phase's first recurrence here instead of
// its third. Only histories transfer: the donor's pending predictions
// and scores are dropped, and this session's clock and score counters
// are kept, so accuracy and coverage still measure only what this
// session predicted. WarmStart refuses once this predictor has issued
// any prediction — knowledge arriving late must never overwrite
// predictions already being scored, and a consumer restored from a
// checkpoint past that point can therefore never be clobbered.
func (c *PredictorConsumer) WarmStart(st predictor.State) error {
	cur := c.pred.State()
	if cur.Predictions > 0 {
		return fmt.Errorf("phase: warm start refused after %d predictions", cur.Predictions)
	}
	st.Pending = nil
	st.Predictions, st.Correct = 0, 0
	st.CoveredInstrs = 0
	st.TotalInstrs = cur.TotalInstrs
	pred, err := predictor.NewFromState(c.policy, st)
	if err != nil {
		return fmt.Errorf("phase: warm start: %w", err)
	}
	c.pred = pred
	return nil
}

// Report implements Reporter.
func (c *PredictorConsumer) Report() string {
	return fmt.Sprintf("policy=%s predictions=%d accuracy=%.4f next-phase hits=%d misses=%d",
		c.policy, c.pred.Predictions(), c.pred.Accuracy(), c.predHits, c.predMisses)
}

const predictorSnapVersion = 1

// Snapshot implements Consumer.
func (c *PredictorConsumer) Snapshot() []byte {
	var e codec.Enc
	e.Num(predictorSnapVersion)
	e.I64(c.prevTime)
	e.I64(c.prevInstr)
	e.I64(c.predicted)
	e.I64(c.predHits)
	e.I64(c.predMisses)
	st := c.pred.State()
	predictor.EncodePhases(&e, st.Phases)
	e.Num(len(st.Pending))
	for _, ps := range st.Pending {
		e.I64(ps.ID)
		e.I64(ps.Instructions)
		for _, f := range ps.Locality {
			e.F64(f)
		}
	}
	e.I64(st.Predictions)
	e.I64(st.Correct)
	e.I64(st.CoveredInstrs)
	e.I64(st.TotalInstrs)
	return e.Buf
}

// Restore implements Consumer.
func (c *PredictorConsumer) Restore(data []byte) error {
	d := codec.NewDec(data, ErrSnapshotCorrupt)
	if v := d.Num(); d.Err() == nil && v != predictorSnapVersion {
		return fmt.Errorf("phase: unsupported predictor snapshot version %d", v)
	}
	prevTime := d.I64()
	prevInstr := d.I64()
	predicted := d.I64()
	predHits := d.I64()
	predMisses := d.I64()
	st := predictor.State{Phases: predictor.DecodePhases(d)}
	nPending := d.Length(2)
	for i := 0; i < nPending && d.Err() == nil; i++ {
		ps := predictor.PendingState{ID: d.I64(), Instructions: d.I64()}
		for x := range ps.Locality {
			ps.Locality[x] = d.F64()
		}
		st.Pending = append(st.Pending, ps)
	}
	st.Predictions = d.I64()
	st.Correct = d.I64()
	st.CoveredInstrs = d.I64()
	st.TotalInstrs = d.I64()
	if err := d.Done(); err != nil {
		return err
	}
	pred, err := predictor.NewFromState(c.policy, st)
	if err != nil {
		return err
	}
	c.pred = pred
	c.prevTime, c.prevInstr = prevTime, prevInstr
	c.predicted, c.predHits, c.predMisses = predicted, predHits, predMisses
	return nil
}
