package cache

import (
	"reflect"
	"testing"
	"testing/quick"

	"lpp/internal/stats"
	"lpp/internal/trace"
	"lpp/internal/workload"
)

func TestSizes(t *testing.T) {
	s := Sizes(DefaultSets, DefaultBlockBits, MaxAssoc)
	if s[0] != 32<<10 || s[7] != 256<<10 {
		t.Errorf("sizes = %v, want 32KB..256KB", s)
	}
}

func TestSetAssocDirectMappedConflict(t *testing.T) {
	c := NewSetAssoc(2, 1, 0) // 2 sets, direct mapped, 1-byte blocks
	// Addresses 0 and 2 map to set 0 and evict each other.
	c.Access(0)
	c.Access(2)
	if c.Access(0) {
		t.Error("expected conflict miss in direct-mapped cache")
	}
	if c.Hits() != 0 || c.Misses() != 3 {
		t.Errorf("hits=%d misses=%d, want 0,3", c.Hits(), c.Misses())
	}
}

func TestSetAssocLRUEviction(t *testing.T) {
	c := NewSetAssoc(1, 2, 0) // fully assoc, 2 lines
	c.Access(1)
	c.Access(2)
	c.Access(1) // 1 becomes MRU
	c.Access(3) // evicts 2
	if !c.Access(1) {
		t.Error("1 should still be cached")
	}
	if c.Access(2) {
		t.Error("2 should have been evicted (LRU)")
	}
}

func TestSetAssocReset(t *testing.T) {
	c := NewSetAssoc(1, 2, 0)
	c.Access(1)
	c.Access(1)
	c.Reset()
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Error("counters should clear on Reset")
	}
	if c.Access(1) {
		t.Error("cache contents should clear on Reset")
	}
}

func TestSetAssocBadGeometry(t *testing.T) {
	for _, f := range []func(){
		func() { NewSetAssoc(3, 1, 6) },
		func() { NewSetAssoc(0, 1, 6) },
		func() { NewSetAssoc(4, 0, 6) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on bad geometry")
				}
			}()
			f()
		}()
	}
}

func TestMultiAssocMatchesSetAssoc(t *testing.T) {
	// Property: MultiAssoc's per-assoc miss rate equals a dedicated
	// SetAssoc simulation at that associativity.
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		m := NewMultiAssoc(4, 4, 2)
		dedicated := make([]*SetAssoc, 4)
		for a := 1; a <= 4; a++ {
			dedicated[a-1] = NewSetAssoc(4, a, 2)
		}
		for i := 0; i < 3000; i++ {
			addr := trace.Addr(rng.Intn(256))
			m.Access(addr)
			for _, c := range dedicated {
				c.Access(addr)
			}
		}
		for a := 1; a <= 4; a++ {
			if m.MissRate(a) != dedicated[a-1].MissRate() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMultiAssocMonotone(t *testing.T) {
	// LRU stack inclusion: more ways never increases the miss rate.
	m := NewDefault()
	rng := stats.NewRNG(3)
	for i := 0; i < 100000; i++ {
		m.Access(trace.Addr(rng.Intn(1 << 20)))
	}
	prev := 1.1
	for a := 1; a <= MaxAssoc; a++ {
		mr := m.MissRate(a)
		if mr > prev+1e-12 {
			t.Errorf("miss rate increased with associativity at %d-way", a)
		}
		prev = mr
	}
}

func TestMultiAssocVector(t *testing.T) {
	m := NewDefault()
	m.Access(0)
	m.Access(0)
	v := m.Vector()
	if v.MissAt(1) != 0.5 || v.MissAt(8) != 0.5 {
		t.Errorf("vector = %v", v)
	}
}

func TestMultiAssocSnapshot(t *testing.T) {
	m := NewDefault()
	m.Access(0) // cold miss
	s := m.Snapshot()
	m.Access(0) // hit
	m.Access(64 << DefaultBlockBits * 1024)
	v, n := m.Since(s)
	if n != 2 {
		t.Fatalf("window accesses = %d, want 2", n)
	}
	if v.MissAt(8) != 0.5 {
		t.Errorf("window miss rate = %g, want 0.5", v.MissAt(8))
	}
	// Empty window.
	s2 := m.Snapshot()
	if _, n := m.Since(s2); n != 0 {
		t.Errorf("empty window accesses = %d", n)
	}
}

func TestMultiAssocReset(t *testing.T) {
	m := NewDefault()
	m.Access(0)
	m.Reset()
	if m.Accesses() != 0 || m.MissRate(1) != 0 {
		t.Error("Reset should clear counters")
	}
}

func TestNoiseModelShrinksWithLength(t *testing.T) {
	n := NewNoiseModel(1)
	base := 0.05
	shortRuns := make([]float64, 200)
	longRuns := make([]float64, 200)
	for i := range shortRuns {
		shortRuns[i] = n.Perturb(base, 10000, false)
		longRuns[i] = n.Perturb(base, 10000000, false)
	}
	if stats.StdDev(shortRuns) <= stats.StdDev(longRuns) {
		t.Error("short executions should vary more than long ones")
	}
	if f := n.Perturb(base, 10000000, true); f <= base {
		t.Error("first execution should be inflated")
	}
}

func TestNoiseModelBounds(t *testing.T) {
	n := NewNoiseModel(2)
	for i := 0; i < 1000; i++ {
		m := n.Perturb(0.99, 100, i == 0)
		if m < 0 || m > 1 {
			t.Fatalf("perturbed miss rate %g out of [0,1]", m)
		}
	}
	if n.Perturb(0.5, 0, false) != 0.5 {
		t.Error("zero-length execution should be unperturbed")
	}
}

func BenchmarkMultiAssocAccess(b *testing.B) {
	m := NewDefault()
	rng := stats.NewRNG(7)
	addrs := make([]trace.Addr, 1<<16)
	for i := range addrs {
		addrs[i] = trace.Addr(rng.Intn(1 << 22))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Access(addrs[i&(1<<16-1)])
	}
}

// firstAccesses records the first n data accesses of a run.
type firstAccesses struct {
	addrs []trace.Addr
}

func (f *firstAccesses) Block(trace.BlockID, int) {}

func (f *firstAccesses) Access(a trace.Addr) {
	if len(f.addrs) < cap(f.addrs) {
		f.addrs = append(f.addrs, a)
	}
}

// BenchmarkMultiAssocAccessBatch feeds the simulator the first 4M
// accesses of the tomcatv Ref address stream in 8K-access batches, the
// way the marked Ref run of core.Predict does, and reports ns per
// access.
func BenchmarkMultiAssocAccessBatch(b *testing.B) {
	spec, err := workload.ByName("tomcatv")
	if err != nil {
		b.Fatal(err)
	}
	rec := &firstAccesses{addrs: make([]trace.Addr, 0, 1<<22)}
	spec.Make(spec.Ref).Run(rec)
	addrs := rec.addrs
	const batch = 1 << 13
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewDefault()
		for lo := 0; lo < len(addrs); lo += batch {
			m.AccessBatch(addrs[lo:min(lo+batch, len(addrs))])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(addrs)), "ns/access")
}

func TestSpread(t *testing.T) {
	same := []Vector{{0.1, 0.2}, {0.1, 0.2}}
	if got := Spread(same); got != 0 {
		t.Errorf("identical vectors spread = %g, want 0", got)
	}
	diff := []Vector{{0, 0}, {1, 1}}
	if got := Spread(diff); got <= 0 {
		t.Errorf("different vectors spread = %g, want > 0", got)
	}
	if Spread(nil) != 0 || Spread(diff[:1]) != 0 {
		t.Error("degenerate groups should be 0")
	}
}

func TestWeightedSpread(t *testing.T) {
	tight := []Vector{{0.1}, {0.1}}
	loose := []Vector{{0}, {1}}
	// All weight on the tight group: ~0.
	if got := WeightedSpread([][]Vector{tight, loose}, []float64{1, 0}); got != 0 {
		t.Errorf("weighted spread = %g, want 0", got)
	}
	// All weight on the loose group: = Spread(loose).
	if got := WeightedSpread([][]Vector{tight, loose}, []float64{0, 1}); got != Spread(loose) {
		t.Errorf("weighted spread = %g, want %g", got, Spread(loose))
	}
	if WeightedSpread(nil, nil) != 0 {
		t.Error("empty weighted spread should be 0")
	}
}

func TestWeightedSpreadMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	WeightedSpread([][]Vector{{}}, nil)
}

func TestSinkAndBlockPassthroughs(t *testing.T) {
	c := NewSetAssoc(4, 1, 6)
	s := Sink{C: c}
	s.Block(1, 10) // ignored
	s.Access(0)
	if c.Misses() != 1 {
		t.Error("Sink did not forward the access")
	}
	c.Block(2, 5) // ignored, no panic
	m := NewDefault()
	m.Block(3, 5) // ignored, no panic
	if m.Accesses() != 0 {
		t.Error("Block must not count as an access")
	}
}

func TestNewMultiAssocBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewMultiAssoc(3, 8, 6)
}

func TestSetAssocMissRateEmpty(t *testing.T) {
	c := NewSetAssoc(4, 1, 6)
	if c.MissRate() != 0 {
		t.Error("empty cache miss rate should be 0")
	}
}

// TestAccessBatchMatchesAccess: feeding a stream through AccessBatch in
// ragged batches leaves the simulator exactly as one Access per address
// does — counters, stacks and locality vector.
func TestAccessBatchMatchesAccess(t *testing.T) {
	rng := stats.NewRNG(19)
	addrs := make([]trace.Addr, 50_000)
	for i := range addrs {
		addrs[i] = trace.Addr(rng.Intn(1 << 18))
	}
	one, batched := NewMultiAssoc(16, 8, 4), NewMultiAssoc(16, 8, 4)
	for _, a := range addrs {
		one.Access(a)
	}
	for lo := 0; lo < len(addrs); {
		hi := min(lo+rng.Intn(300), len(addrs))
		batched.AccessBatch(addrs[lo:hi])
		lo = hi
	}
	if !reflect.DeepEqual(one, batched) {
		t.Fatal("AccessBatch state diverges from per-access Access")
	}
}
