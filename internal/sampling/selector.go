package sampling

import (
	"slices"

	"lpp/internal/reuse"
	"lpp/internal/trace"
)

// Selector is the selection rule both samplers share, the offline pass
// in this package and the streaming detector in internal/online: the
// live threshold triple, the data samples in address order for the
// spatial check, and the index from data-sample address to ID. The
// samplers differ only in how they pace the thresholds and assign IDs.
// Build one with NewSelector.
type Selector struct {
	// Qual is the reuse distance an access must exceed for its datum
	// to become a data sample; Temporal the distance an access to a
	// data sample must exceed to be recorded; Spatial the minimum
	// address separation between data samples.
	Qual, Temporal, Spatial int64

	ids    *trace.AddrIndex // data-sample address -> ID
	sorted []trace.Addr     // data-sample addresses, ascending
}

// NewSelector returns a Selector with cfg's initial thresholds and no
// data samples. Most lookups in Select miss, and a miss probes up to
// the first empty slot, so hint should sit well above the expected
// data-sample count: the index then stays sparse.
func NewSelector(cfg Config, hint int) Selector {
	return Selector{
		Qual:     cfg.Qualification,
		Temporal: cfg.Temporal,
		Spatial:  cfg.Spatial,
		ids:      trace.NewAddrIndex(hint),
	}
}

// Verdict is Select's decision on one access.
type Verdict uint8

const (
	// Ignore: the access is neither recorded nor admitted.
	Ignore Verdict = iota
	// Record: the access is to a data sample and its reuse distance
	// exceeds Temporal; record it as an access sample of that ID.
	Record
	// Admit: the access is to no data sample, its distance exceeds
	// Qual and its address keeps Spatial from every data sample; the
	// caller may make it a data sample (Add) and record the access.
	Admit
)

// Select applies the selection rule to one access with reuse distance
// dist. The returned ID is meaningful only with Record.
func (s *Selector) Select(addr trace.Addr, dist int64) (int, Verdict) {
	if dist == reuse.Infinite {
		return 0, Ignore
	}
	if id, ok := s.ids.Get(addr); ok {
		if dist > s.Temporal {
			return int(id), Record
		}
		return 0, Ignore
	}
	if dist > s.Qual && s.separate(addr) {
		return 0, Admit
	}
	return 0, Ignore
}

// separate reports whether addr keeps the spatial threshold from every
// data sample.
func (s *Selector) separate(addr trace.Addr) bool {
	i := s.search(addr)
	if i < len(s.sorted) && int64(s.sorted[i]-addr) < s.Spatial {
		return false
	}
	return i == 0 || int64(addr-s.sorted[i-1]) >= s.Spatial
}

// search returns the position of the first data sample at or above
// addr. It is written out because separate runs on the per-access
// path: in a profile of the streaming detector, slices.BinarySearch
// took twice as long as this loop.
func (s *Selector) search(addr trace.Addr) int {
	i, j := 0, len(s.sorted)
	for i < j {
		h := int(uint(i+j) >> 1)
		if s.sorted[h] < addr {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// Add makes addr data sample id. It reports false, changing nothing,
// when addr already is a data sample.
func (s *Selector) Add(addr trace.Addr, id int) bool {
	i := s.search(addr)
	if i < len(s.sorted) && s.sorted[i] == addr {
		return false
	}
	s.ids.Swap(addr, int64(id))
	s.sorted = slices.Insert(s.sorted, i, addr)
	return true
}

// Remove drops data sample addr, if present.
func (s *Selector) Remove(addr trace.Addr) {
	if i := s.search(addr); i < len(s.sorted) && s.sorted[i] == addr {
		s.ids.Delete(addr)
		s.sorted = slices.Delete(s.sorted, i, i+1)
	}
}

// Raise is the overshoot step of both feedback loops: having collected
// got samples where the pace expected expected, it multiplies Qual and
// Temporal by the overshoot, clamped to [2, maxFactor], so even an
// adversarial stream converges in a handful of checks, and doubles
// Spatial.
func (s *Selector) Raise(got, expected float64, maxFactor int64) {
	factor := min(max(int64(got/expected), 2), maxFactor)
	s.Qual *= factor
	s.Temporal *= factor
	s.Spatial *= 2
}
