package predictor

import (
	"fmt"

	"lpp/internal/cache"
	"lpp/internal/codec"
	"lpp/internal/marker"
)

// PhaseState is one phase's learned history in serializable form.
type PhaseState struct {
	ID       int64
	Lengths  []int64
	Locality []cache.Vector
	InstrSum int64
}

// PendingState is one outstanding (unscored) prediction.
type PendingState struct {
	ID           int64
	Instructions int64
	Locality     cache.Vector
}

// State is a Predictor's complete learned state, expressed with slices
// in ascending phase-ID order so the same predictor state always
// serializes to the same bytes. The policy and tolerance are not part
// of it: they are configuration, supplied again on restore.
type State struct {
	Phases  []PhaseState
	Pending []PendingState

	Predictions   int64
	Correct       int64
	CoveredInstrs int64
	TotalInstrs   int64
}

// State exports the predictor's learned histories and scores.
func (p *Predictor) State() State {
	st := State{
		Predictions:   p.predictions,
		Correct:       p.correct,
		CoveredInstrs: p.coveredInstrs,
		TotalInstrs:   p.totalInstrs,
	}
	for id, h := range p.phases {
		ps := PhaseState{
			ID:       int64(id),
			Lengths:  append([]int64(nil), h.lengths...),
			Locality: append([]cache.Vector(nil), h.locality...),
			InstrSum: h.instrSum,
		}
		st.Phases = append(st.Phases, ps)
	}
	sortByID(st.Phases, func(ps PhaseState) int64 { return ps.ID })
	for id, pred := range p.pending {
		st.Pending = append(st.Pending, PendingState{
			ID:           int64(id),
			Instructions: pred.Instructions,
			Locality:     pred.Locality,
		})
	}
	sortByID(st.Pending, func(ps PendingState) int64 { return ps.ID })
	return st
}

// NewFromState rebuilds a predictor from an exported State under the
// given policy. The state is validated structurally; on error no
// predictor is returned.
func NewFromState(policy Policy, st State) (*Predictor, error) {
	p := New(policy)
	for i, ps := range st.Phases {
		if i > 0 && st.Phases[i-1].ID >= ps.ID {
			return nil, fmt.Errorf("predictor: phase IDs not ascending at %d", i)
		}
		if len(ps.Lengths) != len(ps.Locality) {
			return nil, fmt.Errorf("predictor: phase %d has %d lengths but %d locality vectors",
				ps.ID, len(ps.Lengths), len(ps.Locality))
		}
		p.phases[marker.PhaseID(ps.ID)] = &history{
			lengths:  append([]int64(nil), ps.Lengths...),
			locality: append([]cache.Vector(nil), ps.Locality...),
			instrSum: ps.InstrSum,
		}
	}
	for i, ps := range st.Pending {
		if i > 0 && st.Pending[i-1].ID >= ps.ID {
			return nil, fmt.Errorf("predictor: pending IDs not ascending at %d", i)
		}
		p.pending[marker.PhaseID(ps.ID)] = Prediction{
			Instructions: ps.Instructions,
			Locality:     ps.Locality,
		}
	}
	if st.Predictions < 0 || st.Correct < 0 || st.Correct > st.Predictions {
		return nil, fmt.Errorf("predictor: inconsistent scores %d/%d", st.Correct, st.Predictions)
	}
	p.predictions = st.Predictions
	p.correct = st.Correct
	p.coveredInstrs = st.CoveredInstrs
	p.totalInstrs = st.TotalInstrs
	return p, nil
}

// EncodePhases writes phase histories in the one layout every state
// format shares (the predictor consumer, knowledge entries, the
// knowledge consumer's early capture): the count, then per phase its
// ID, history length, lengths, locality vectors and instruction sum.
func EncodePhases(e *codec.Enc, phases []PhaseState) {
	e.Num(len(phases))
	for _, ps := range phases {
		e.I64(ps.ID)
		e.Num(len(ps.Lengths))
		for _, l := range ps.Lengths {
			e.I64(l)
		}
		for _, v := range ps.Locality {
			for _, f := range v {
				e.F64(f)
			}
		}
		e.I64(ps.InstrSum)
	}
}

// DecodePhases reads phase histories written by EncodePhases. It checks
// structure only; NewFromState validates the histories.
func DecodePhases(d *codec.Dec) []PhaseState {
	var phases []PhaseState
	n := d.Length(2)
	for i := 0; i < n && d.Err() == nil; i++ {
		ps := PhaseState{ID: d.I64()}
		m := d.Length(1)
		ps.Lengths = make([]int64, 0, m)
		for j := 0; j < m && d.Err() == nil; j++ {
			ps.Lengths = append(ps.Lengths, d.I64())
		}
		ps.Locality = make([]cache.Vector, 0, m)
		for j := 0; j < m && d.Err() == nil; j++ {
			var v cache.Vector
			for x := range v {
				v[x] = d.F64()
			}
			ps.Locality = append(ps.Locality, v)
		}
		ps.InstrSum = d.I64()
		phases = append(phases, ps)
	}
	return phases
}

// sortByID sorts in place by an extracted int64 key.
func sortByID[T any](s []T, key func(T) int64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && key(s[j]) < key(s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
