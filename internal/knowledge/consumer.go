package knowledge

import (
	"fmt"

	"lpp/internal/codec"
	"lpp/internal/phase"
	"lpp/internal/predictor"
	"lpp/internal/sequitur"
)

// maxTrackedTerms caps the fingerprint grammar: beyond it the grammar
// stops growing (the first few thousand boundaries identify a program;
// an unbounded builder would grow with session length for nothing).
const maxTrackedTerms = 4096

// captureBoundaries is the boundary depth at which a session captures
// the predictor state it will contribute to the store. A warm start
// lands within the first few boundaries of a fresh session, so the
// useful donation is what the trainer's predictor knew when IT was
// young — phases whose period drifts over a long run would otherwise
// donate end-of-run tails that mispredict the re-run's early
// intervals. Sessions shorter than this contribute their final state.
const captureBoundaries = 16

// Consumer rides the phase bus for one session, growing the session's
// fingerprint grammar from its boundary rhythm and — when attached to
// a store and a predictor consumer — warm-starting the predictor as
// soon as the grammar confidently matches a stored program.
//
// It implements phase.Consumer, so its matching state snapshots and
// restores with the rest of the chain: a recovered session does not
// re-attempt a warm start it already applied or abandoned.
type Consumer struct {
	store  *Store                   // nil: track only (training runs)
	target *phase.PredictorConsumer // nil: never warm-start

	b          *sequitur.Builder
	terms      int64
	boundaries int64
	lastTime   int64

	// done is set once matching is settled for this session: a warm
	// start was applied, the window closed, or the predictor started
	// predicting cold.
	done    bool
	matched uint64 // fingerprint warm-started from; 0 if none
	score   float64

	// early is the predictor state captured at captureBoundaries,
	// already compacted; earlySet records whether capture fired.
	early    predictor.State
	earlySet bool
}

// NewConsumer returns a session consumer. store may be nil to track a
// fingerprint without matching (training); target may be nil to match
// without warm-starting (inspection).
func NewConsumer(store *Store, target *phase.PredictorConsumer) *Consumer {
	return &Consumer{
		store:  store,
		target: target,
		b:      sequitur.NewBuilder(),
	}
}

// Name implements phase.Consumer.
func (c *Consumer) Name() string { return "knowledge" }

// Consume implements phase.Consumer. Only boundaries matter: each one
// appends a (phase, interval-bucket) terminal to the fingerprint
// grammar and, while the session is young, attempts a store match.
func (c *Consumer) Consume(ev phase.Event) error {
	if ev.Kind != phase.BoundaryDetected {
		return nil
	}
	interval := ev.Time - c.lastTime
	c.lastTime = ev.Time
	if ev.Phase < 0 {
		return nil // unidentified prelude: clock moved, nothing to learn
	}
	c.boundaries++
	// The first boundary's interval measures from stream start, so it
	// folds the whole pre-phase ramp into one term that recurs nowhere
	// else in the program — in the training grammar or this one. Skip
	// it (in both) and the steady rhythm dominates from the second
	// boundary on, which is what makes early matching possible.
	if c.boundaries > 1 && c.terms < maxTrackedTerms {
		c.b.Append(Term(ev.Phase, interval))
		c.terms++
	}
	if c.boundaries == captureBoundaries && c.target != nil {
		c.early = CompactState(c.target.Predictor().State())
		c.earlySet = true
	}
	c.tryWarmStart()
	return nil
}

// tryWarmStart attempts one store match inside the session's matching
// window. Outside the window (or once settled) it is a no-op.
func (c *Consumer) tryWarmStart() {
	if c.done || c.store == nil || c.target == nil {
		return
	}
	if c.boundaries < minBoundaries {
		return
	}
	if c.boundaries > maxBoundaries {
		c.done = true
		c.store.MarkMiss()
		return
	}
	if c.target.Predictor().Predictions() > 0 {
		// The session predicts cold already; knowledge arriving now
		// would overwrite real learned history for no gain.
		c.done = true
		c.store.MarkMiss()
		return
	}
	m, ok := c.store.Lookup(Query{Grammar: c.Compact(), Prefix: c.Prefix()})
	if !ok {
		return
	}
	if err := c.target.WarmStart(m.Knowledge.Predictor); err != nil {
		// Refused (e.g. the predictor predicted between our check and
		// the call — impossible on the single-threaded bus, but cheap
		// to tolerate): settle without a hit.
		c.done = true
		c.store.MarkMiss()
		return
	}
	c.done = true
	c.matched = m.Knowledge.Fingerprint
	c.score = m.Score
	c.store.MarkHit(c.matched)
}

// Compact returns the session's current fingerprint grammar digest.
func (c *Consumer) Compact() sequitur.Compact { return c.b.Grammar().Compact() }

// Prefix returns the first PrefixTerms terminals appended to the
// fingerprint grammar, recovered from its expansion (the grammar is
// lossless, so no separate buffer is kept).
func (c *Consumer) Prefix() []int {
	seq := c.b.Grammar().Expand()
	if len(seq) > PrefixTerms {
		seq = seq[:PrefixTerms]
	}
	return seq
}

// Fingerprint returns the current grammar fingerprint.
func (c *Consumer) Fingerprint() uint64 { return c.Compact().Fingerprint() }

// Boundaries returns how many identified boundaries were observed.
func (c *Consumer) Boundaries() int64 { return c.boundaries }

// WarmStarted reports whether this session was warm-started, from
// which stored fingerprint, and with what match score.
func (c *Consumer) WarmStarted() (fingerprint uint64, score float64, ok bool) {
	return c.matched, c.score, c.matched != 0
}

// Entry builds this session's store contribution: its fingerprint
// grammar plus the predictor's compacted learned state. ok is false
// when there is nothing worth contributing (no target, or fewer
// boundaries than the matching window needs to recognize a program).
func (c *Consumer) Entry() (Knowledge, bool) {
	if c.target == nil || c.boundaries < minBoundaries {
		return Knowledge{}, false
	}
	g := c.Compact()
	st := c.early
	if !c.earlySet {
		st = CompactState(c.target.Predictor().State())
	}
	if len(st.Phases) == 0 {
		return Knowledge{}, false
	}
	return Knowledge{
		Fingerprint: g.Fingerprint(),
		Grammar:     g,
		Prefix:      c.Prefix(),
		Predictor:   st,
		Boundaries:  c.boundaries,
	}, true
}

// Report implements phase.Reporter.
func (c *Consumer) Report() string {
	if c.matched != 0 {
		return fmt.Sprintf("boundaries=%d warmstart=%#x score=%.3f", c.boundaries, c.matched, c.score)
	}
	return fmt.Sprintf("boundaries=%d warmstart=none", c.boundaries)
}

const consumerSnapVersion = 1

// Snapshot implements phase.Consumer. The grammar's rule bodies write
// Terminal as a Num flag (online's LPPSNAP writes the same builder
// state with byte flags).
func (c *Consumer) Snapshot() []byte {
	var e codec.Enc
	e.Num(consumerSnapVersion)
	e.I64(c.terms)
	e.I64(c.boundaries)
	e.I64(c.lastTime)
	e.NumFlag(c.done)
	e.U64(c.matched)
	e.F64(c.score)
	e.NumFlag(c.earlySet)
	predictor.EncodePhases(&e, c.early.Phases)
	st := c.b.State()
	e.Num(st.NextID)
	e.Num(len(st.Rules))
	for _, r := range st.Rules {
		e.Num(r.ID)
		e.Num(len(r.Body))
		for _, s := range r.Body {
			e.NumFlag(s.Terminal)
			e.Num(s.Value)
		}
	}
	e.Num(len(st.Digrams))
	for _, d := range st.Digrams {
		e.Num(d.Rule)
		e.Num(d.Pos)
	}
	return e.Buf
}

// Restore implements phase.Consumer.
func (c *Consumer) Restore(data []byte) error {
	d := codec.NewDec(data, ErrCorrupt)
	if v := d.Num(); d.Err() == nil && v != consumerSnapVersion {
		return fmt.Errorf("knowledge: unsupported consumer snapshot version %d", v)
	}
	terms := d.I64()
	boundaries := d.I64()
	lastTime := d.I64()
	done := d.NumFlag()
	matched := d.U64()
	score := d.F64()
	earlySet := d.NumFlag()
	early := predictor.State{Phases: predictor.DecodePhases(d)}
	var st sequitur.BuilderState
	st.NextID = d.Num()
	nRules := d.Length(2)
	for i := 0; i < nRules && d.Err() == nil; i++ {
		r := sequitur.RuleState{ID: d.Num()}
		nBody := d.Length(2)
		for j := 0; j < nBody && d.Err() == nil; j++ {
			r.Body = append(r.Body, sequitur.Symbol{Terminal: d.NumFlag(), Value: d.Num()})
		}
		st.Rules = append(st.Rules, r)
	}
	nDigrams := d.Length(2)
	for i := 0; i < nDigrams && d.Err() == nil; i++ {
		st.Digrams = append(st.Digrams, sequitur.DigramState{Rule: d.Num(), Pos: d.Num()})
	}
	if err := d.Done(); err != nil {
		return err
	}
	b, err := sequitur.NewBuilderFromState(st)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	c.b = b
	c.terms = terms
	c.boundaries = boundaries
	c.lastTime = lastTime
	c.done = done
	c.matched = matched
	c.score = score
	c.earlySet = earlySet
	c.early = early
	return nil
}
