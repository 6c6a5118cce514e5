package sampling

import (
	"reflect"
	"sort"
	"testing"

	"lpp/internal/reuse"
	"lpp/internal/trace"
)

// refSampler is a frozen copy of the offline sampler from before it
// shared Selector with the streaming detector, kept as a test oracle:
// its own threshold triple, a map from datum address to ID, its own
// sorted-slice spatial check and overshoot branch. The production
// sampler must produce the same Result on every stream.
type refSampler struct {
	cfg Config
	now int64

	qual, temporal, spatial int64

	dataIDs   map[trace.Addr]int
	dataAddrs []trace.Addr
	sorted    []trace.Addr

	samples     []Sample
	adjustments int
	lastCheck   int64
}

// refRunTraceDists is the frozen sampler fed precomputed distances, as
// runTraceDists feeds the current one.
func refRunTraceDists(accesses []trace.Addr, dists []int64, cfg Config) Result {
	if cfg.ExpectedLength == 0 {
		cfg.ExpectedLength = int64(len(accesses))
	}
	def := DefaultConfig()
	if cfg.TargetSamples <= 0 {
		cfg.TargetSamples = def.TargetSamples
	}
	if cfg.Qualification <= 0 {
		cfg.Qualification = def.Qualification
	}
	if cfg.Temporal <= 0 {
		cfg.Temporal = def.Temporal
	}
	if cfg.Spatial <= 0 {
		cfg.Spatial = def.Spatial
	}
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = def.CheckEvery
	}
	s := &refSampler{
		cfg:      cfg,
		qual:     cfg.Qualification,
		temporal: cfg.Temporal,
		spatial:  cfg.Spatial,
		dataIDs:  make(map[trace.Addr]int),
	}
	for i, a := range accesses {
		s.accessDist(a, dists[i])
	}
	return Result{Samples: s.samples, DataAddrs: s.dataAddrs, Adjustments: s.adjustments, Accesses: s.now}
}

func (s *refSampler) accessDist(addr trace.Addr, dist int64) {
	t := s.now
	s.now++
	if dist == reuse.Infinite {
		return
	}
	if id, ok := s.dataIDs[addr]; ok {
		if dist > s.temporal {
			s.samples = append(s.samples, Sample{Time: t, Data: id, Dist: dist})
		}
	} else if dist > s.qual && s.spatiallySeparate(addr) {
		id := len(s.dataAddrs)
		s.dataIDs[addr] = id
		s.dataAddrs = append(s.dataAddrs, addr)
		s.insertSorted(addr)
		s.samples = append(s.samples, Sample{Time: t, Data: id, Dist: dist})
	}
	if s.now-s.lastCheck >= s.cfg.CheckEvery {
		s.lastCheck = s.now
		s.feedback()
	}
}

func (s *refSampler) spatiallySeparate(addr trace.Addr) bool {
	i := sort.Search(len(s.sorted), func(i int) bool { return s.sorted[i] >= addr })
	if i < len(s.sorted) && int64(s.sorted[i]-addr) < s.spatial {
		return false
	}
	if i > 0 && int64(addr-s.sorted[i-1]) < s.spatial {
		return false
	}
	return true
}

func (s *refSampler) insertSorted(addr trace.Addr) {
	i := sort.Search(len(s.sorted), func(i int) bool { return s.sorted[i] >= addr })
	s.sorted = append(s.sorted, 0)
	copy(s.sorted[i+1:], s.sorted[i:])
	s.sorted[i] = addr
}

func (s *refSampler) feedback() {
	var expected float64
	if s.cfg.ExpectedLength > 0 {
		expected = float64(s.cfg.TargetSamples) * float64(s.now) / float64(s.cfg.ExpectedLength)
	} else {
		expected = float64(s.cfg.TargetSamples)
	}
	got := float64(len(s.samples))
	switch {
	case got > 1.5*expected:
		factor := int64(got / expected)
		if factor < 2 {
			factor = 2
		}
		if factor > 16 {
			factor = 16
		}
		s.qual *= factor
		s.temporal *= factor
		s.spatial *= 2
		s.adjustments++
	case s.cfg.ExpectedLength > 0 && got < 0.25*expected && s.qual > 16:
		s.qual /= 2
		s.temporal /= 2
		if s.spatial > 64 {
			s.spatial /= 2
		}
		s.adjustments++
	}
	for len(s.samples) > 2*s.cfg.TargetSamples {
		kept := s.samples[:0]
		for i, smp := range s.samples {
			if i%2 == 0 {
				kept = append(kept, smp)
			}
		}
		s.samples = kept
		s.adjustments++
	}
}

// adversarialStream builds an (addr, dist) stream from a fuzzer
// pattern. Each pattern byte, cycled, is one of:
//
//	0..47     a cold access to a fresh address;
//	48..111   a qualifying access in a cluster spaced one byte below,
//	          at, or one byte above the initial spatial threshold;
//	112..175  a reuse of a recent address at a distance near the
//	          initial thresholds, above or below;
//	176..255  a burst of up to 1280 long reuses over 64 widely spaced
//	          addresses, which admits them and then floods the budget
//	          (x16 raises and decimation).
func adversarialStream(pattern []byte, spatial int64, total int) ([]trace.Addr, []int64) {
	addrs := make([]trace.Addr, 0, total)
	dists := make([]int64, 0, total)
	emit := func(a trace.Addr, d int64) {
		addrs = append(addrs, a)
		dists = append(dists, d)
	}
	fresh := trace.Addr(1 << 40)
	const cluster = trace.Addr(1 << 32)
	burst := 0
	for i := 0; len(addrs) < total; i++ {
		b := pattern[i%len(pattern)]
		switch {
		case b < 48:
			fresh += 8
			emit(fresh, reuse.Infinite)
		case b < 112:
			step := trace.Addr(spatial + int64(b%3) - 1)
			emit(cluster+trace.Addr(b%16)*step, 1<<20+int64(b))
		case b < 176:
			back := int(b-111) * 7
			a := cluster
			if n := len(addrs); n > back {
				a = addrs[n-back]
			}
			emit(a, int64(b-112)*17)
		default:
			for k := 0; k < int(b-175)*16 && len(addrs) < total; k++ {
				burst++
				emit(trace.Addr(1<<48)+trace.Addr(burst%64)<<24, 1<<30+int64(k))
			}
		}
	}
	return addrs, dists
}

// FuzzSamplerMatchesReference drives the sampler and the frozen
// reference with fuzzer-shaped (addr, dist) streams under fuzzer-chosen
// budgets, check intervals, thresholds and length estimates, through
// two entry points: runTraceDists with the stream's distances and
// RunTrace, whose analyzer measures the addresses' own.
func FuzzSamplerMatchesReference(f *testing.F) {
	f.Add([]byte{0, 60, 61, 62, 120, 200}, uint16(100), uint16(500), uint8(6), uint8(0))
	f.Add([]byte{255, 255, 10, 130}, uint16(20), uint16(64), uint8(10), uint8(2))
	f.Add([]byte{50, 51, 52, 53, 54, 55, 56, 57, 58, 59}, uint16(300), uint16(2000), uint8(3), uint8(1))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint16(64), uint16(128), uint8(1), uint8(2))
	f.Add([]byte{180, 0, 0, 0, 0, 170, 150, 49}, uint16(0), uint16(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, pattern []byte, target, check uint16, spatialLog, pace uint8) {
		if len(pattern) == 0 {
			return
		}
		const total = 40_000
		cfg := Config{
			TargetSamples: int(target % 400),
			CheckEvery:    int64(check % 3000),
			Qualification: 64 << (spatialLog % 5),
			Temporal:      32 << (spatialLog % 7),
			Spatial:       1 << (spatialLog % 12),
		}
		// Pace against the stream's own length, against a short one
		// (the pace runs ahead and undershoot halves the thresholds),
		// or against a long one (every burst overshoots).
		switch pace % 3 {
		case 1:
			cfg.ExpectedLength = total / 8
		case 2:
			cfg.ExpectedLength = total * 8
		}
		addrs, dists := adversarialStream(pattern, cfg.Spatial, total)
		if got, want := runTraceDists(addrs, dists, cfg), refRunTraceDists(addrs, dists, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("runTraceDists: %d samples, %d data, %d adjustments; reference %d, %d, %d",
				len(got.Samples), len(got.DataAddrs), got.Adjustments,
				len(want.Samples), len(want.DataAddrs), want.Adjustments)
		}
		an := reuse.NewAnalyzer()
		for i, a := range addrs {
			dists[i] = an.Access(a)
		}
		if got, want := RunTrace(addrs, cfg), refRunTraceDists(addrs, dists, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("RunTrace: %d samples, %d data, %d adjustments; reference %d, %d, %d",
				len(got.Samples), len(got.DataAddrs), got.Adjustments,
				len(want.Samples), len(want.DataAddrs), want.Adjustments)
		}
	})
}

// TestSelectorRule pins the shared rule at its edges: cold accesses,
// the strict qualification and temporal comparisons, the spatial
// boundary on both sides, re-admission after Remove, and Raise's clamp.
func TestSelectorRule(t *testing.T) {
	s := NewSelector(Config{Qualification: 100, Temporal: 50, Spatial: 64}, 4)
	check := func(addr trace.Addr, dist int64, wantID int, want Verdict) {
		t.Helper()
		id, v := s.Select(addr, dist)
		if v != want || (v == Record && id != wantID) {
			t.Fatalf("Select(%d, %d) = %d, %d; want %d, %d", addr, dist, id, v, wantID, want)
		}
	}
	check(1000, reuse.Infinite, 0, Ignore)
	check(1000, 100, 0, Ignore)
	check(1000, 101, 0, Admit)
	if !s.Add(1000, 7) || s.Add(1000, 8) {
		t.Fatal("Add must admit a new address once")
	}
	check(1000, reuse.Infinite, 0, Ignore)
	check(1000, 50, 0, Ignore)
	check(1000, 51, 7, Record)
	check(1063, 1<<20, 0, Ignore)
	check(1064, 1<<20, 0, Admit)
	check(937, 1<<20, 0, Ignore)
	check(936, 1<<20, 0, Admit)
	s.Remove(1000)
	s.Remove(1000)
	check(1000, 51, 0, Ignore)
	check(1063, 1<<20, 0, Admit)

	s.Raise(100, 10, 4)
	if s.Qual != 400 || s.Temporal != 200 || s.Spatial != 128 {
		t.Fatalf("Raise by 10 capped at 4: %d/%d/%d", s.Qual, s.Temporal, s.Spatial)
	}
	s.Raise(11, 10, 16)
	if s.Qual != 800 || s.Temporal != 400 || s.Spatial != 256 {
		t.Fatalf("Raise by 1.1 floored at 2: %d/%d/%d", s.Qual, s.Temporal, s.Spatial)
	}
}
