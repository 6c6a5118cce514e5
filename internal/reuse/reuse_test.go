package reuse

import (
	"runtime"
	"testing"
	"testing/quick"

	"lpp/internal/stats"
	"lpp/internal/trace"
)

// naive is a brute-force LRU stack used as the reference implementation.
type naive struct {
	stack []trace.Addr // most recent first
}

func (n *naive) access(addr trace.Addr) int64 {
	for i, a := range n.stack {
		if a == addr {
			copy(n.stack[1:i+1], n.stack[:i])
			n.stack[0] = addr
			return int64(i)
		}
	}
	n.stack = append([]trace.Addr{addr}, n.stack...)
	return Infinite
}

func TestAnalyzerSimpleSequence(t *testing.T) {
	a := NewAnalyzer()
	// a b c a: distance of second 'a' is 2 (b and c in between).
	seq := []trace.Addr{1, 2, 3, 1}
	want := []int64{Infinite, Infinite, Infinite, 2}
	for i, addr := range seq {
		if got := a.Access(addr); got != want[i] {
			t.Errorf("access %d (%d): distance = %d, want %d", i, addr, got, want[i])
		}
	}
	if a.Distinct() != 3 {
		t.Errorf("Distinct = %d, want 3", a.Distinct())
	}
}

func TestAnalyzerImmediateReuse(t *testing.T) {
	a := NewAnalyzer()
	a.Access(5)
	if got := a.Access(5); got != 0 {
		t.Errorf("immediate reuse distance = %d, want 0", got)
	}
}

func TestAnalyzerRepeatedReuseCountsDistinct(t *testing.T) {
	a := NewAnalyzer()
	// x y y y x: only one distinct element (y) between the two x's.
	for _, addr := range []trace.Addr{1, 2, 2, 2} {
		a.Access(addr)
	}
	if got := a.Access(1); got != 1 {
		t.Errorf("distance = %d, want 1", got)
	}
}

func TestAnalyzerMatchesNaive(t *testing.T) {
	f := func(seq []uint8) bool {
		a := NewAnalyzer()
		n := &naive{}
		for _, s := range seq {
			addr := trace.Addr(s % 32)
			if a.Access(addr) != n.access(addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAnalyzerCompaction(t *testing.T) {
	// Drive far past the initial bitmap capacity to force compactions,
	// checking against the naive stack with a small working set.
	a := NewAnalyzer()
	n := &naive{}
	rng := stats.NewRNG(42)
	const accesses = 300000 // > 1<<16 initial capacity, several compactions
	for i := 0; i < accesses; i++ {
		addr := trace.Addr(rng.Intn(100))
		got, want := a.Access(addr), n.access(addr)
		if got != want {
			t.Fatalf("access %d: distance = %d, want %d", i, got, want)
		}
	}
}

func TestAnalyzerCompactionLargeWorkingSet(t *testing.T) {
	// Working set larger than the initial bitmap, cyclic pattern:
	// after warmup every access to the cycle has distance N-1.
	a := NewAnalyzer()
	const n = 1 << 17
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			d := a.Access(trace.Addr(i))
			if round == 0 {
				if d != Infinite {
					t.Fatalf("cold access %d: distance = %d, want Infinite", i, d)
				}
			} else if d != n-1 {
				t.Fatalf("round %d access %d: distance = %d, want %d", round, i, d, n-1)
			}
		}
	}
}

func TestHistogramMissRate(t *testing.T) {
	h := NewHistogram()
	// 2 cold, distances 0, 1, 5.
	h.Add(Infinite)
	h.Add(Infinite)
	h.Add(0)
	h.Add(1)
	h.Add(5)
	if h.Total() != 5 || h.Cold() != 2 {
		t.Fatalf("total=%d cold=%d", h.Total(), h.Cold())
	}
	cases := []struct {
		cap  int64
		want float64
	}{
		{1, 4.0 / 5}, // only distance 0 hits
		{2, 3.0 / 5}, // distances 0,1 hit
		{6, 2.0 / 5}, // all finite distances hit
		{100, 2.0 / 5},
	}
	for _, c := range cases {
		if got := h.MissRate(c.cap); got != c.want {
			t.Errorf("MissRate(%d) = %g, want %g", c.cap, got, c.want)
		}
	}
}

func TestHistogramOverflowBuckets(t *testing.T) {
	h := NewHistogram()
	h.Add(exactLimit + 10) // lands in a log2 bucket
	h.Add(3)
	// Capacity below the overflow bucket: both the overflow distance
	// and nothing else should miss.
	if got := h.MissRate(4); got != 0.5 {
		t.Errorf("MissRate(4) = %g, want 0.5", got)
	}
	// Large capacity above the bucket: everything hits.
	if got := h.MissRate(1 << 20); got != 0 {
		t.Errorf("MissRate(1<<20) = %g, want 0", got)
	}
}

func TestHistogramMissRateMonotone(t *testing.T) {
	// Property: miss rate is non-increasing in capacity (stack
	// inclusion property of LRU).
	f := func(ds []uint16) bool {
		h := NewHistogram()
		for _, d := range ds {
			h.Add(int64(d))
		}
		prev := 1.1
		for c := int64(1); c < 1<<17; c *= 2 {
			m := h.MissRate(c)
			if m > prev+1e-12 {
				return false
			}
			prev = m
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkAnalyzerAccess(b *testing.B) {
	a := NewAnalyzer()
	rng := stats.NewRNG(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Access(trace.Addr(rng.Intn(1 << 16)))
	}
}

// BenchmarkAnalyzerTrainTrace runs the exact analyzer over the recorded
// Train address stream of each offline-pipeline kernel, the way
// Detect's split pass does (prefetching prefetchAhead accesses ahead),
// and reports ns per access. Unlike
// BenchmarkAnalyzerAccess (uniform random addresses) this keeps the
// live set, the reuse-distance mix and so the walk heights and
// compaction rate at a real program's.
func BenchmarkAnalyzerTrainTrace(b *testing.B) {
	for _, name := range []string{"tomcatv", "swim", "fft", "mesh"} {
		b.Run(name, func(b *testing.B) {
			addrs := trainAccesses(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := NewAnalyzer()
				for j, addr := range addrs {
					if k := j + prefetchAhead; k < len(addrs) {
						a.Prefetch(addrs[k])
					}
					a.Access(addr)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(addrs)), "ns/access")
		})
	}
}

// BenchmarkAnalyzerCompact pins the periodic rebuild: a live set of
// 32K elements is remapped and the bitmap and block tree reconstructed
// on every iteration, the way the Access hot loop triggers it once per
// O(bitmap size) accesses.
func BenchmarkAnalyzerCompact(b *testing.B) {
	a := NewAnalyzer()
	for i := 0; i < 1<<15; i++ {
		a.Access(trace.Addr(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.compact()
	}
}

// TestCompactSteadyStateAllocs: once the bitmap has reached the live
// set's size, a compaction must not allocate — the Access hot loop's
// amortized allocation rate depends on it.
func TestCompactSteadyStateAllocs(t *testing.T) {
	a := NewAnalyzer()
	rng := stats.NewRNG(11)
	for i := 0; i < 1<<14; i++ {
		a.Access(trace.Addr(rng.Intn(1 << 12)))
	}
	a.compact() // grow the bitmap to the live set
	if allocs := testing.AllocsPerRun(10, func() { a.compact() }); allocs > 0 {
		t.Errorf("steady-state compact allocates %.1f objects per run, want 0", allocs)
	}
}

// TestCompactPreservesDistances: distances across a forced compaction
// must equal those of a never-compacted reference analyzer.
func TestCompactPreservesDistances(t *testing.T) {
	ref := NewAnalyzer()
	sub := NewAnalyzer()
	rng := stats.NewRNG(13)
	var addrs []trace.Addr
	for i := 0; i < 4096; i++ {
		addrs = append(addrs, trace.Addr(rng.Intn(512)))
	}
	for i, addr := range addrs {
		want := ref.Access(addr)
		if i%777 == 0 {
			sub.compact()
		}
		if got := sub.Access(addr); got != want {
			t.Fatalf("access %d (%#x): distance %d after compaction, want %d", i, addr, got, want)
		}
	}
}

// TestNewAnalyzerSmall: a fresh analyzer allocates at most 16 KB (an
// 8 KB bitmap, its block tree and a small index), so that the many
// short-lived analyzers of a split pass or a fuzz run cost little to
// create; its structures grow with the live set instead.
func TestNewAnalyzerSmall(t *testing.T) {
	const n, limit = 16, 16 << 10
	keep := make([]*Analyzer, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewAnalyzer()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("NewAnalyzer allocates %d bytes", per)
	if per > limit {
		t.Errorf("NewAnalyzer allocates %d bytes, want at most %d", per, limit)
	}
	runtime.KeepAlive(keep)
}

// TestAnalyzerAccessZeroAllocs pins the exact analyzer's hot loop at
// zero allocations: after warm-up on the tomcatv Train trace, 4K-access
// chunks through Access allocate nothing, and the measured window
// spans at least one compaction, so the index walks, the rank scan and
// the tree rebuild are covered too.
func TestAnalyzerAccessZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-runtime allocations")
	}
	addrs := trainAccesses(t, "tomcatv")
	const chunk, warm = 4096, 1 << 20
	a := NewAnalyzer()
	for _, addr := range addrs[:warm] {
		a.Access(addr)
	}
	off, compactions := warm, 0
	avg := testing.AllocsPerRun(100, func() {
		for _, addr := range addrs[off : off+chunk] {
			before := a.now
			a.Access(addr)
			if a.now <= before {
				compactions++
			}
		}
		off += chunk
	})
	if avg != 0 {
		t.Errorf("steady-state Access: %.2f allocs per %d-access chunk, want 0", avg, chunk)
	}
	if compactions == 0 {
		t.Errorf("no compaction in the measured window")
	}
}
