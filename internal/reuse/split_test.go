package reuse

import (
	"slices"
	"testing"

	"lpp/internal/stats"
	"lpp/internal/trace"
)

// refDistances is the frozen exact reference's distance stream.
func refDistances(addrs []trace.Addr) []int64 {
	ref := newRefExact()
	want := make([]int64, len(addrs))
	for i, a := range addrs {
		want[i] = ref.Access(a)
	}
	return want
}

// checkSplit runs the split pass over addrs cut at starts and checks
// every distance the way a trailing sampler reads it: in the run ready
// hands over, and never again. The runs must be non-empty, contiguous
// and in order, every distance in them must already equal the
// reference's, and so must the returned slice.
func checkSplit(t testing.TB, addrs []trace.Addr, starts []int, want []int64) {
	t.Helper()
	next := 0
	got := splitAt(addrs, starts, func(lo int, dists []int64) {
		if lo != next || len(dists) == 0 || lo+len(dists) > len(addrs) {
			t.Fatalf("starts %v: run [%d, %d) after %d of %d", starts, lo, lo+len(dists), next, len(addrs))
		}
		for i, d := range dists {
			if d != want[lo+i] {
				t.Fatalf("starts %v: access %d (addr %#x): distance %d, reference %d",
					starts, lo+i, addrs[lo+i], d, want[lo+i])
			}
		}
		next = lo + len(dists)
	})
	if next != len(addrs) || !slices.Equal(got, want) {
		t.Fatalf("starts %v: runs end at %d of %d, or the returned distances differ", starts, next, len(addrs))
	}
}

// evenStarts cuts n accesses into k equal segments, however short.
func evenStarts(n, k int) []int {
	starts := make([]int, k)
	for j := range starts {
		starts[j] = j * n / k
	}
	return starts
}

// TestSplitDistancesMatchReference covers the stream shapes that stress
// the hand-back: streams with nothing to hand back and nothing but,
// segments that are empty or one access long, and reuses that cross
// two segment edges, at every K in {1, 2, 3, 4, 7}.
func TestSplitDistancesMatchReference(t *testing.T) {
	rng := stats.NewRNG(5)
	random := make([]trace.Addr, 5000)
	for i := range random {
		random[i] = trace.Addr(rng.Intn(700)) * 8
	}
	allCold := make([]trace.Addr, 3000)
	for i := range allCold {
		allCold[i] = trace.Addr(i) * 64
	}
	oneAddr := make([]trace.Addr, 3000)
	for i := range oneAddr {
		oneAddr[i] = 0x40
	}
	hotCycle := make([]trace.Addr, 3000)
	for i := range hotCycle {
		hotCycle[i] = trace.Addr(i%5) * 8
	}
	// Three thirds: a scan of A, a scan of fresh B, A again in
	// reverse. Cut in thirds, every reuse crosses two segment edges
	// and passes the middle analyzer unresolved.
	const third = 1000
	crossTwo := make([]trace.Addr, 0, 3*third)
	for i := 0; i < third; i++ {
		crossTwo = append(crossTwo, trace.Addr(i)*8)
	}
	for i := 0; i < third; i++ {
		crossTwo = append(crossTwo, trace.Addr(1<<20+i)*8)
	}
	for i := third - 1; i >= 0; i-- {
		crossTwo = append(crossTwo, trace.Addr(i)*8)
	}
	streams := []struct {
		name  string
		addrs []trace.Addr
	}{
		{"random", random}, {"all-cold", allCold}, {"one-address", oneAddr},
		{"hot-cycle", hotCycle}, {"cross-two-edges", crossTwo},
		{"single", []trace.Addr{8}}, {"empty", nil},
	}
	for _, s := range streams {
		t.Run(s.name, func(t *testing.T) {
			n := len(s.addrs)
			want := refDistances(s.addrs)
			for _, k := range []int{1, 2, 3, 4, 7} {
				checkSplit(t, s.addrs, evenStarts(n, k), want)
			}
			if n < 4 {
				return
			}
			for _, starts := range [][]int{
				{0, 0, n / 2},                 // empty first segment
				{0, n / 3, n / 3, n / 3, n},   // empty middle segments and an empty last one
				{0, 1, n / 2, n/2 + 1, n - 1}, // one-access segments
				{0, n - 1},                    // one-access last segment
			} {
				checkSplit(t, s.addrs, starts, want)
			}
		})
	}
	// The two-edge stream's reuses span the whole fresh middle third:
	// the last access reaches back past every other address.
	if want := refDistances(crossTwo); want[3*third-1] != 2*third-1 {
		t.Fatalf("cross-two-edges: last reuse distance %d, want %d", want[3*third-1], 2*third-1)
	}
}

// TestSplitDistancesTrainTraces splits the Train traces the offline
// benchmark detects on as SplitDistances does, at every K in
// {1, 2, 3, 4, 7}, against the frozen reference.
func TestSplitDistancesTrainTraces(t *testing.T) {
	for _, name := range []string{"tomcatv", "swim", "fft", "mesh"} {
		t.Run(name, func(t *testing.T) {
			addrs := trainAccesses(t, name)
			if raceEnabled && len(addrs) > 1<<18 {
				addrs = addrs[:1<<18]
			}
			want := refDistances(addrs)
			for _, k := range []int{1, 2, 3, 4, 7} {
				starts := segmentStarts(len(addrs), k)
				if len(starts) != k {
					t.Fatalf("%d accesses split %d ways, want %d", len(addrs), len(starts), k)
				}
				checkSplit(t, addrs, starts, want)
			}
		})
	}
}

// TestSegmentStarts: segments never fall below minSegment, so a short
// trace stays on one analyzer whatever K asks for.
func TestSegmentStarts(t *testing.T) {
	for _, c := range []struct {
		n, k int
		want []int
	}{
		{0, 4, []int{0}},
		{minSegment, 4, []int{0}},
		{2*minSegment - 1, 2, []int{0}},
		{2 * minSegment, 2, []int{0, minSegment}},
		{3*minSegment + 1, 8, []int{0, minSegment, 2 * minSegment}},
		{10 * minSegment, 0, []int{0}},
	} {
		if got := segmentStarts(c.n, c.k); !slices.Equal(got, c.want) {
			t.Errorf("segmentStarts(%d, %d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

// FuzzSplitDistancesMatchReference cuts fuzzer-shaped streams (see
// FuzzAnalyzerMatchesReference) into 1 to 8 segments at random points,
// empty segments included, and holds every distance, checked as soon
// as it is handed over, to the frozen reference.
func FuzzSplitDistancesMatchReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0xff, 3, 0x80, 1, 0}, uint8(7), uint8(2), uint64(1))
	f.Add([]byte{0xff, 0xff, 0xa0, 0x80, 0xc0, 5}, uint8(1), uint8(7), uint64(2))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(64), uint8(3), uint64(3))
	f.Add([]byte{0xe0, 0x81, 0xb3, 0xf0, 0x10, 0x90, 0xa7}, uint8(200), uint8(5), uint64(4))
	f.Add([]byte{0xff}, uint8(0), uint8(4), uint64(5))
	f.Fuzz(func(t *testing.T, pattern []byte, hot, k uint8, seed uint64) {
		if len(pattern) == 0 {
			return
		}
		addrs := patternStream(pattern, hot, 20_000)
		rng := stats.NewRNG(seed)
		starts := make([]int, int(k%8)+1)
		for j := 1; j < len(starts); j++ {
			starts[j] = rng.Intn(len(addrs) + 1)
		}
		slices.Sort(starts)
		checkSplit(t, addrs, starts, refDistances(addrs))
	})
}
