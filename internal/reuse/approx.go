package reuse

import (
	"sort"

	"lpp/internal/trace"
)

// ApproxAnalyzer measures reuse distance with bounded relative error
// and bounded memory, after the approximate analysis of Ding and Zhong
// [12] that makes whole-trace locality profiling "near linear time":
// instead of one Fenwick slot per logical time, last-access times are
// grouped into buckets whose allowed size grows geometrically with
// distance from the present. Counts stay exact (each live element
// belongs to exactly one bucket); the only approximation is an
// element's position *within* its bucket, so the reported distance is
// within a factor of (1±ε) of the true one for distances ≳ 1/ε.
//
// An Access costs one probe sequence of the last-access index
// (trace.AddrIndex, whose Swap looks up the previous time and stores
// the new one together) plus O(log B) for B buckets: a binary search
// for the previous access's bucket, and Fenwick-tree prefix sums for
// the count of newer elements. On top of that comes the O(B)
// compaction, which runs only when the bucket count passes four times
// its target and leaves far fewer, so it is amortized over the
// accesses in between. EvictOldest forgets addresses with one
// in-place sweep of the index.
type ApproxAnalyzer struct {
	eps  float64
	last *trace.AddrIndex // element -> last access time

	// buckets are in ascending time order: bucket i covers times
	// (buckets[i-1].maxTime, buckets[i].maxTime].
	buckets []approxBucket
	// tree is a 1-based Fenwick tree over the bucket counts: tree[i]
	// covers buckets (i-lowbit(i), i] in 1-based numbering, and tree[0]
	// is unused. It is rebuilt whenever buckets is rewritten wholesale.
	tree []int64
	now  int64
	live int64 // total live elements across buckets

	// tgt caches targetBuckets() as of the last rebuild or recheck.
	// live never drops between evictions and targetBuckets is monotone
	// in live, so tgt is a lower bound on the exact target: a bucket
	// count within 4*tgt cannot trigger compaction, and only a count
	// beyond it pays for the exact recomputation.
	tgt int

	// newerScratch is compact's reusable prefix-sum buffer, so steady-
	// state compaction allocates nothing.
	newerScratch []int64
}

type approxBucket struct {
	maxTime int64
	count   int64
}

// NewApproxAnalyzer returns an analyzer with relative precision eps
// (0 < eps < 1); eps = 0 takes 0.05, i.e. 95% accuracy as in the
// cited analysis.
func NewApproxAnalyzer(eps float64) *ApproxAnalyzer {
	if eps <= 0 || eps >= 1 {
		eps = 0.05
	}
	a := &ApproxAnalyzer{eps: eps, last: trace.NewAddrIndex(0)}
	a.rebuild()
	return a
}

// Access records a reference to addr and returns its approximate reuse
// distance (Infinite for a cold access).
func (a *ApproxAnalyzer) Access(addr trace.Addr) int64 {
	t := a.now
	a.now++
	prev, seen := a.last.Swap(addr, t)

	dist := Infinite
	if seen {
		idx := a.find(prev)
		// Elements in strictly newer buckets are certainly between
		// prev and t; within prev's own bucket, assume the element
		// sits in the middle.
		after := a.live - a.prefix(idx+1)
		dist = after + (a.buckets[idx].count-1)/2
		a.buckets[idx].count--
		for i := idx + 1; i < len(a.tree); i += i & -i {
			a.tree[i]--
		}
		a.live--
	}
	a.buckets = append(a.buckets, approxBucket{maxTime: t, count: 1})
	// The new slot i covers buckets (i-lowbit(i), i]: this one plus the
	// older ones in that range.
	i := len(a.buckets)
	lowbit := i & -i
	a.tree = append(a.tree, 1+a.prefix(i-1)-a.prefix(i-lowbit))
	a.live++
	if len(a.buckets) > 4*a.tgt {
		a.tgt = a.targetBuckets()
		if len(a.buckets) > 4*a.tgt {
			a.compact()
		}
	}
	return dist
}

// AccessEvict records one reference and applies the streaming
// detector's eviction rule in the same call: once more than maxLive
// distinct addresses are live, the oldest are forgotten down to
// maxLive/2. It is exactly an Access followed by the detector's
// Distinct-gauge check — the fused entry point exists so the ingest hot
// path pays one concrete call per reference instead of a call, a gauge
// read, and a branch. maxLive <= 0 disables eviction.
func (a *ApproxAnalyzer) AccessEvict(addr trace.Addr, maxLive int) int64 {
	d := a.Access(addr)
	if maxLive > 0 && a.last.Len() > maxLive {
		a.EvictOldest(maxLive / 2)
	}
	return d
}

// Distinct returns the number of distinct elements seen so far.
func (a *ApproxAnalyzer) Distinct() int { return a.last.Len() }

// EvictOldest caps the analyzer's memory at maxLive tracked elements by
// forgetting the least-recently-accessed ones: whole oldest buckets are
// dropped until at most maxLive live elements remain, and the addresses
// whose last access fell in a dropped bucket are removed in one
// allocation-free sweep of the last-access index. A later
// access to an evicted address reads as a cold miss (Infinite), the
// same graceful degradation a smaller profiling window would give. It
// returns the number of elements evicted.
func (a *ApproxAnalyzer) EvictOldest(maxLive int) int {
	if maxLive < 0 {
		maxLive = 0
	}
	if a.live <= int64(maxLive) {
		return 0
	}
	var dropped int64
	cutoff := int64(-1)
	i := 0
	for ; i < len(a.buckets) && a.live-dropped > int64(maxLive); i++ {
		dropped += a.buckets[i].count
		cutoff = a.buckets[i].maxTime
	}
	a.buckets = a.buckets[:copy(a.buckets, a.buckets[i:])]
	a.live -= dropped
	a.rebuild()
	// Every address's single live slot is its last-access time, so the
	// evicted addresses are exactly those at or before the cutoff.
	a.last.DeleteUpTo(cutoff)
	return int(dropped)
}

// Buckets returns the current bucket count (the memory bound under
// test: O(log(M)/ε) instead of O(M)).
func (a *ApproxAnalyzer) Buckets() int { return len(a.buckets) }

// find returns the index of the bucket containing time x.
func (a *ApproxAnalyzer) find(x int64) int {
	return sort.Search(len(a.buckets), func(i int) bool {
		return a.buckets[i].maxTime >= x
	})
}

// prefix returns the live elements in the n oldest buckets.
func (a *ApproxAnalyzer) prefix(n int) int64 {
	var s int64
	for ; n > 0; n &= n - 1 {
		s += a.tree[n]
	}
	return s
}

// rebuild recomputes the Fenwick tree from the bucket counts in O(B)
// and refreshes the cached compaction target. Every path that rewrites
// buckets wholesale or lowers live (compaction, eviction, restore) ends
// here. The tree is sized for the largest bucket count the target
// allows before the next compaction, so steady-state appends reuse it.
func (a *ApproxAnalyzer) rebuild() {
	a.tgt = a.targetBuckets()
	n := len(a.buckets)
	if want := 4*a.tgt + 2; cap(a.tree) < want {
		a.tree = make([]int64, 0, max(want, n+1))
	}
	a.tree = a.tree[:n+1]
	a.tree[0] = 0
	for i, b := range a.buckets {
		a.tree[i+1] = b.count
	}
	for i := 1; i <= n; i++ {
		if j := i + i&-i; j <= n {
			a.tree[j] += a.tree[i]
		}
	}
}

// targetBuckets is the size the structure compacts toward.
func (a *ApproxAnalyzer) targetBuckets() int {
	n := 64
	// log_{1+eps}(live) buckets suffice for the error bound.
	for m := a.live; m > 1; m = int64(float64(m) / (1 + a.eps)) {
		n++
	}
	return n
}

// compact merges adjacent buckets from oldest to newest while the
// merged size stays within ε of the number of distinct elements more
// recent than the pair — which is exactly what bounds the relative
// error of the mid-bucket position estimate.
func (a *ApproxAnalyzer) compact() {
	n := len(a.buckets)
	// newer[i]: live elements in buckets strictly newer than i.
	if cap(a.newerScratch) < n {
		a.newerScratch = make([]int64, n)
	}
	newer := a.newerScratch[:n]
	var acc int64
	for i := n - 1; i >= 0; i-- {
		newer[i] = acc
		acc += a.buckets[i].count
	}
	out := a.buckets[:0]
	for i := 0; i < n; i++ {
		b := a.buckets[i]
		if b.count == 0 && len(out) > 0 {
			// Empty bucket: extend the previous range.
			out[len(out)-1].maxTime = b.maxTime
			continue
		}
		if len(out) > 0 {
			prev := &out[len(out)-1]
			if float64(prev.count+b.count) <= a.eps*float64(newer[i])+1 {
				prev.count += b.count
				prev.maxTime = b.maxTime
				continue
			}
		}
		out = append(out, b)
	}
	a.buckets = out
	a.rebuild()
}
