package reuse

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"lpp/internal/trace"
)

// TestSortByAddrMatchesSlicesSort holds State's radix sort to a
// comparison sort on the key shapes the analyzer sees: tiny tables,
// keys differing only above the low 16 or 32 bits (so whole low byte
// positions are skipped), the high-bit offset the benchmark's seeds
// add to every address, and random 64-bit keys. Each time is a function
// of its address, so a pair split by the sort shows up as a mismatch.
func TestSortByAddrMatchesSlicesSort(t *testing.T) {
	timeOf := func(a trace.Addr) int64 { return int64(a*0x9e3779b97f4a7c15>>1) ^ 0x5a5a }
	strided := func(n int, stride, base trace.Addr) []trace.Addr {
		out := make([]trace.Addr, n)
		for i := range out {
			out[i] = base + trace.Addr(i)*stride
		}
		return out
	}
	rng := rand.New(rand.NewSource(1))
	random := make([]trace.Addr, 5000)
	for i := range random {
		random[i] = trace.Addr(rng.Uint64())
	}
	seedOffset := func(seed uint64) trace.Addr { return trace.Addr(seed%4096+1) << 32 }
	cases := map[string][]trace.Addr{
		"n=0":           {},
		"n=1":           {42},
		"n=2":           {1 << 40, 7},
		"n=2 top byte":  {0x1234 + 1<<56, 0x1234},
		"stride 2^16":   strided(3000, 1<<16, 0),
		"stride 2^32":   strided(3000, 1<<32, 0),
		"seed 1 offset": strided(3000, 64, seedOffset(1)),
		"seed 9001":     strided(3000, 8, seedOffset(9001)),
		"random":        random,
	}
	for name, keys := range cases {
		addrs := slices.Clone(keys)
		rng.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
		times := make([]int64, len(addrs))
		for i, a := range addrs {
			times[i] = timeOf(a)
		}
		gotA, gotT := sortByAddr(addrs, times)
		want := slices.Clone(keys)
		slices.Sort(want)
		if !slices.Equal(gotA, want) {
			t.Errorf("%s: addresses not in slices.Sort order", name)
			continue
		}
		for i, a := range gotA {
			if gotT[i] != timeOf(a) {
				t.Errorf("%s: time at %d does not belong to address %#x", name, i, a)
				break
			}
		}
	}
}

// TestNewApproxFromStateRejectsMiscountedBuckets pins that a restore
// checks each bucket count against the census of last-access times the
// bucket covers, not just their sum against Live. Moving one count
// between two buckets keeps the sum; accepted, the short bucket's count
// would go negative on the reuse of its last covered address.
func TestNewApproxFromStateRejectsMiscountedBuckets(t *testing.T) {
	a := NewApproxAnalyzer(0.05)
	for i := 0; i < 20_000; i++ {
		a.Access(trace.Addr(i % 3000))
	}
	st := a.State()
	if _, err := NewApproxFromState(st); err != nil {
		t.Fatalf("valid state: %v", err)
	}
	j := slices.IndexFunc(st.BucketCounts, func(c int64) bool { return c > 1 })
	if j < 1 || j == len(st.BucketCounts)-1 {
		t.Fatalf("no merged inner bucket to miscount in %d buckets", len(st.BucketCounts))
	}
	for _, to := range []int{j - 1, j + 1} {
		bad := st
		bad.BucketCounts = slices.Clone(st.BucketCounts)
		bad.BucketCounts[j]--
		bad.BucketCounts[to]++
		if _, err := NewApproxFromState(bad); !errors.Is(err, errApproxState) {
			t.Errorf("one count moved from bucket %d to %d: err = %v, want errApproxState", j, to, err)
		}
	}
}
