package phase

import (
	"fmt"

	"lpp/internal/adapt"
	"lpp/internal/cache"
	"lpp/internal/codec"
)

// DefaultDVFSBound is the default 5% slowdown budget for frequency
// scaling.
const DefaultDVFSBound = 0.05

// DVFSConsumer replays adapt.GroupedDVFS one event at a time: the
// first two executions of each phase run at full frequency while its
// memory-boundedness is measured (the first sees a cold cache and
// overstates memory time), and later executions use the frequency
// learned from the last warm trial.
type DVFSConsumer struct {
	model adapt.DVFSModel
	bound float64

	learned map[int]*dvfsState

	prevTime int64

	baseTime   float64
	newTime    float64
	freqTime   float64
	baseEnergy float64
	newEnergy  float64
}

type dvfsState struct {
	seen int64
	f    float64
}

// NewDVFSConsumer returns a frequency-scaling consumer for the given
// model and slowdown budget.
func NewDVFSConsumer(model adapt.DVFSModel, bound float64) *DVFSConsumer {
	return &DVFSConsumer{model: model, bound: bound, learned: make(map[int]*dvfsState)}
}

// Name implements Consumer.
func (c *DVFSConsumer) Name() string { return "dvfs" }

// Consume implements Consumer.
func (c *DVFSConsumer) Consume(ev Event) error {
	if ev.Kind != BoundaryDetected {
		return nil
	}
	n := float64(ev.Time - c.prevTime)
	c.prevTime = ev.Time
	if ev.Phase < 0 || n <= 0 {
		return nil
	}
	compute := n
	memory := n * ev.Locality.MissAt(cache.MaxAssoc) * c.model.MissPenalty
	st := c.learned[ev.Phase]
	if st == nil {
		st = &dvfsState{}
		c.learned[ev.Phase] = st
	}
	var f float64
	if st.seen < 2 {
		st.f = c.model.Choose(compute, memory, c.bound)
		st.seen++
		f = 1
	} else {
		f = st.f
	}
	t := compute/f + memory
	c.baseTime += compute + memory
	c.newTime += t
	c.freqTime += f * t
	c.baseEnergy += compute
	c.newEnergy += compute * f * f
	return nil
}

// Result folds the consumed stream into the offline experiment's
// summary shape.
func (c *DVFSConsumer) Result() adapt.DVFSResult {
	r := adapt.DVFSResult{AvgFrequency: 1}
	if c.baseTime > 0 {
		r.Slowdown = c.newTime/c.baseTime - 1
	}
	if c.newTime > 0 {
		r.AvgFrequency = c.freqTime / c.newTime
	}
	if c.baseEnergy > 0 {
		r.EnergySavings = 1 - c.newEnergy/c.baseEnergy
	}
	return r
}

// Report implements Reporter.
func (c *DVFSConsumer) Report() string {
	r := c.Result()
	return fmt.Sprintf("bound=%.2f avg-freq=%.3f energy-savings=%.4f slowdown=%.4f",
		c.bound, r.AvgFrequency, r.EnergySavings, r.Slowdown)
}

const dvfsSnapVersion = 1

// Snapshot implements Consumer.
func (c *DVFSConsumer) Snapshot() []byte {
	var e codec.Enc
	e.Num(dvfsSnapVersion)
	e.I64(c.prevTime)
	e.F64(c.baseTime)
	e.F64(c.newTime)
	e.F64(c.freqTime)
	e.F64(c.baseEnergy)
	e.F64(c.newEnergy)
	e.Num(len(c.learned))
	for _, ph := range codec.SortedKeys(c.learned) {
		st := c.learned[ph]
		e.Num(ph)
		e.I64(st.seen)
		e.F64(st.f)
	}
	return e.Buf
}

// Restore implements Consumer.
func (c *DVFSConsumer) Restore(data []byte) error {
	d := codec.NewDec(data, ErrSnapshotCorrupt)
	if v := d.Num(); d.Err() == nil && v != dvfsSnapVersion {
		return fmt.Errorf("phase: unsupported dvfs snapshot version %d", v)
	}
	prevTime := d.I64()
	baseTime := d.F64()
	newTime := d.F64()
	freqTime := d.F64()
	baseEnergy := d.F64()
	newEnergy := d.F64()
	n := d.Length(10)
	learned := make(map[int]*dvfsState, n)
	for i, ph := 0, 0; i < n && d.Err() == nil; i++ {
		ph = d.Key(i, ph)
		learned[ph] = &dvfsState{seen: d.I64(), f: d.F64()}
	}
	if err := d.Done(); err != nil {
		return err
	}
	c.prevTime = prevTime
	c.baseTime, c.newTime, c.freqTime = baseTime, newTime, freqTime
	c.baseEnergy, c.newEnergy = baseEnergy, newEnergy
	c.learned = learned
	return nil
}
