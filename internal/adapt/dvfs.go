package adapt

import (
	"lpp/internal/cache"
	"lpp/internal/codec"
	"lpp/internal/interval"
)

// DVFSModel implements phase-based dynamic voltage and frequency
// scaling, the other adaptation the paper's phase markers were built
// to drive (Hsu & Kremer [17], Huang et al. [21], Magklis et al. [22]
// all select program regions and set their voltage): a memory-bound
// phase can run at a lower core frequency with little slowdown because
// its time is dominated by frequency-independent memory stalls.
//
// Time model, normalized to full frequency: compute cycles scale as
// 1/f, memory-stall time is constant. Dynamic energy scales as f²
// (voltage tracks frequency) on the compute portion.
type DVFSModel struct {
	// Levels are the available relative frequencies in ascending
	// order, each in (0, 1].
	Levels []float64
	// MissPenalty is the full-frequency cycles per cache miss that
	// become frequency-independent memory time.
	MissPenalty float64
}

// DefaultDVFS offers the half-to-full range in five steps.
var DefaultDVFS = DVFSModel{
	Levels:      []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
	MissPenalty: 100,
}

// Choose returns the lowest frequency whose slowdown stays within
// bound (e.g. 0.05 for 5%): slowdown(f) = (compute/f + memory) /
// (compute + memory).
func (m DVFSModel) Choose(compute, memory, bound float64) float64 {
	base := compute + memory
	if base == 0 {
		return 1
	}
	for _, f := range m.Levels {
		t := compute/f + memory
		if t/base <= 1+bound {
			return f
		}
	}
	return 1
}

// DVFSResult summarizes a phase-based frequency-scaling run.
type DVFSResult struct {
	// AvgFrequency is the time-weighted average relative frequency.
	AvgFrequency float64
	// EnergySavings is the relative dynamic-energy reduction against
	// always running at full frequency.
	EnergySavings float64
	// Slowdown is the realized relative execution-time increase.
	Slowdown float64
}

// Scaler applies the grouped learn-then-reuse discipline to frequency
// scaling one window at a time: the first two executions of each label
// run at full frequency while its memory-boundedness is measured (two,
// because the first runs on a cold cache and overstates memory time),
// and later executions use the frequency learned from the last warm
// trial. A window's compute cycles are its length and its memory time
// its full-size misses (the cache is not being resized here) times
// MissPenalty. GroupedDVFS is a loop over it, and phase.DVFSConsumer
// feeds it one boundary event at a time.
type Scaler struct {
	model   DVFSModel
	bound   float64
	learned map[int]*scaleLabel

	baseTime, newTime, freqTime float64
	baseEnergy, newEnergy       float64
}

type scaleLabel struct {
	seen int
	f    float64
}

// NewScaler returns a scaler for the model and slowdown budget.
func (m DVFSModel) NewScaler(bound float64) *Scaler {
	return &Scaler{model: m, bound: bound, learned: make(map[int]*scaleLabel)}
}

// Bound returns the scaler's slowdown budget.
func (s *Scaler) Bound() float64 { return s.bound }

// Step runs one window of length accesses with locality loc under the
// given label.
func (s *Scaler) Step(label int, length int64, loc cache.Vector) {
	compute := float64(length)
	memory := compute * loc.MissAt(cache.MaxAssoc) * s.model.MissPenalty
	st := s.learned[label]
	if st == nil {
		st = &scaleLabel{}
		s.learned[label] = st
	}
	f := st.f
	if st.seen < 2 {
		st.f = s.model.Choose(compute, memory, s.bound)
		st.seen++
		f = 1
	}
	t := compute/f + memory
	s.baseTime += compute + memory
	s.newTime += t
	s.freqTime += f * t
	s.baseEnergy += compute // f = 1, f² = 1
	s.newEnergy += compute * f * f
}

// Result summarizes the windows stepped so far.
func (s *Scaler) Result() DVFSResult {
	r := DVFSResult{AvgFrequency: 1}
	if s.baseTime > 0 {
		r.Slowdown = s.newTime/s.baseTime - 1
	}
	if s.newTime > 0 {
		r.AvgFrequency = s.freqTime / s.newTime
	}
	if s.baseEnergy > 0 {
		r.EnergySavings = 1 - s.newEnergy/s.baseEnergy
	}
	return r
}

// Encode appends the scaler's state: the accumulators, then each
// label's seen count and learned frequency in ascending label order.
func (s *Scaler) Encode(e *codec.Enc) {
	e.F64(s.baseTime)
	e.F64(s.newTime)
	e.F64(s.freqTime)
	e.F64(s.baseEnergy)
	e.F64(s.newEnergy)
	e.Num(len(s.learned))
	for _, label := range codec.SortedKeys(s.learned) {
		st := s.learned[label]
		e.Num(label)
		e.Num(st.seen)
		e.F64(st.f)
	}
}

// Decode returns a scaler with s's model and bound and the state
// Encode wrote. On a decode error the state is partial: callers keep
// the result only if d.Done() succeeds.
func (s *Scaler) Decode(d *codec.Dec) *Scaler {
	out := &Scaler{model: s.model, bound: s.bound}
	out.baseTime = d.F64()
	out.newTime = d.F64()
	out.freqTime = d.F64()
	out.baseEnergy = d.F64()
	out.newEnergy = d.F64()
	n := d.Length(10)
	out.learned = make(map[int]*scaleLabel, n)
	for i, label := 0, 0; i < n && d.Err() == nil; i++ {
		label = d.Key(i, label)
		out.learned[label] = &scaleLabel{seen: d.Num(), f: d.F64()}
	}
	return out
}

// GroupedDVFS scales a labeled window sequence with a Scaler.
func (m DVFSModel) GroupedDVFS(labels []int, wins []interval.Window, bound float64) DVFSResult {
	if len(labels) != len(wins) {
		panic("adapt: GroupedDVFS length mismatch")
	}
	s := m.NewScaler(bound)
	for i, w := range wins {
		s.Step(labels[i], int64(w.Len()), w.Loc)
	}
	return s.Result()
}
