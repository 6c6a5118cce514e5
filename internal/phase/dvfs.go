package phase

import (
	"fmt"

	"lpp/internal/adapt"
	"lpp/internal/codec"
)

// DefaultDVFSBound is the default 5% slowdown budget for frequency
// scaling.
const DefaultDVFSBound = 0.05

// DVFSConsumer wraps adapt.Scaler, the learn-then-reuse frequency
// policy of the offline DVFS experiment, around the event bus: each
// boundary ending an identified phase is one window, its length the
// access delta since the previous boundary and its locality the
// event's signature. The unmarked prelude (Phase < 0) and zero-length
// windows are skipped.
type DVFSConsumer struct {
	s        *adapt.Scaler
	prevTime int64
}

// NewDVFSConsumer returns a frequency-scaling consumer for the given
// model and slowdown budget.
func NewDVFSConsumer(model adapt.DVFSModel, bound float64) *DVFSConsumer {
	return &DVFSConsumer{s: model.NewScaler(bound)}
}

// Name implements Consumer.
func (c *DVFSConsumer) Name() string { return "dvfs" }

// Consume implements Consumer.
func (c *DVFSConsumer) Consume(ev Event) error {
	if ev.Kind != BoundaryDetected {
		return nil
	}
	length := ev.Time - c.prevTime
	c.prevTime = ev.Time
	if ev.Phase >= 0 && length > 0 {
		c.s.Step(ev.Phase, length, ev.Locality)
	}
	return nil
}

// Result folds the consumed stream into the offline experiment's
// summary shape.
func (c *DVFSConsumer) Result() adapt.DVFSResult { return c.s.Result() }

// Report implements Reporter.
func (c *DVFSConsumer) Report() string {
	r := c.Result()
	return fmt.Sprintf("bound=%.2f avg-freq=%.3f energy-savings=%.4f slowdown=%.4f",
		c.s.Bound(), r.AvgFrequency, r.EnergySavings, r.Slowdown)
}

const dvfsSnapVersion = 1

// Snapshot implements Consumer.
func (c *DVFSConsumer) Snapshot() []byte {
	var e codec.Enc
	e.Num(dvfsSnapVersion)
	e.I64(c.prevTime)
	c.s.Encode(&e)
	return e.Buf
}

// Restore implements Consumer.
func (c *DVFSConsumer) Restore(data []byte) error {
	d := codec.NewDec(data, ErrSnapshotCorrupt)
	if v := d.Num(); d.Err() == nil && v != dvfsSnapVersion {
		return fmt.Errorf("phase: unsupported dvfs snapshot version %d", v)
	}
	prevTime := d.I64()
	s := c.s.Decode(d)
	if err := d.Done(); err != nil {
		return err
	}
	c.prevTime, c.s = prevTime, s
	return nil
}
