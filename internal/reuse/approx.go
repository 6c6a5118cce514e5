package reuse

import (
	"math/bits"

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
// the new one together) plus the bucket work. Each Access appends a
// unit bucket, so every bucket added since the last compaction covers
// one known time: the previous access's bucket in that tail is found
// by subtraction, and the newer live elements are a popcount over the
// tail's liveness bits. Only a previous access older than the tail
// pays O(log B), for B buckets at the last compaction: a binary search
// of those buckets and a Fenwick-tree prefix sum over them. On top of
// that comes the O(B) compaction, which runs only when the bucket
// count passes four times its target and leaves far fewer, so it is
// amortized over the accesses in between. EvictOldest only raises an
// eviction floor: an index entry whose time is at or below it is dead,
// reads as cold, and is overwritten in place when its address returns.
// Dead entries are purged in one sweep of the index only when an
// insert would otherwise grow it, so the index is never larger than
// one that dropped them at once.
type ApproxAnalyzer struct {
	eps  float64
	last *trace.AddrIndex // element -> last access time
	// floor is the newest last-access time EvictOldest has forgotten:
	// entries of last at or below it are dead (-1: none).
	floor int64

	// buckets are in ascending time order: bucket i covers times
	// (buckets[i-1].maxTime, buckets[i].maxTime].
	buckets []approxBucket
	now     int64
	live    int64 // total live elements across buckets

	// The head is buckets[:n0], the list as the last rebuild left it
	// at clock t0. Every later bucket is the unit bucket an Access
	// appended, so buckets[n0+k] covers exactly time t0+k.
	n0 int
	t0 int64
	// tree is a 1-based Fenwick tree over the head's bucket counts:
	// tree[i] covers buckets (i-lowbit(i), i] in 1-based numbering,
	// and tree[0] is unused. It is rebuilt whenever buckets is
	// rewritten wholesale.
	tree []int64
	// tail has bit k set while tail bucket buckets[n0+k] holds its one
	// element. Its words are reused from rebuild to rebuild.
	tail []uint64

	// tgt caches targetBuckets() as of the last recheck, eviction or
	// restore. live never drops between evictions and targetBuckets is
	// monotone in live, so tgt is a lower bound on the exact target: a
	// bucket count within 4*tgt cannot trigger compaction, and only a
	// count beyond it pays for the exact recomputation.
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
	a := &ApproxAnalyzer{eps: eps, last: trace.NewAddrIndex(0), floor: -1}
	a.tgt = a.targetBuckets()
	a.rebuild()
	return a
}

// Access records a reference to addr and returns its approximate reuse
// distance (Infinite for a cold access).
func (a *ApproxAnalyzer) Access(addr trace.Addr) int64 {
	t := a.now
	a.now++
	if a.last.Full() && a.last.Len() > int(a.live) {
		// An insert would grow the index while it holds dead entries:
		// drop them instead.
		a.last.DeleteUpTo(a.floor)
	}
	prev, seen := a.last.Swap(addr, t)

	dist := Infinite
	if seen && prev > a.floor {
		var idx int
		if prev >= a.t0 {
			// A tail bucket holds just this element, so the newer
			// live tail buckets are exactly the elements in between.
			k := int(prev - a.t0)
			idx = a.n0 + k
			dist = a.tailNewer(k)
			a.tail[k>>6] &^= 1 << (k & 63)
		} else {
			idx = a.findHead(prev)
			// Elements in strictly newer buckets are certainly between
			// prev and t; within prev's own bucket, assume the element
			// sits in the middle.
			dist = a.live - a.headPrefix(idx+1) + (a.buckets[idx].count-1)/2
			for i := idx + 1; i <= a.n0; i += i & -i {
				a.tree[i]--
			}
		}
		a.buckets[idx].count--
		a.live--
	}
	k := len(a.buckets) - a.n0
	if k>>6 == len(a.tail) {
		a.tail = append(a.tail, 0)
	}
	a.tail[k>>6] |= 1 << (k & 63)
	a.buckets = append(a.buckets, approxBucket{maxTime: t, count: 1})
	a.live++
	if len(a.buckets) > 4*a.tgt {
		a.tgt = a.targetBuckets()
		if len(a.buckets) > 4*a.tgt {
			a.compact()
		}
	}
	return dist
}

// Prefetch starts loading the last-access slot that a later Access to
// addr probes first, so that Access need not stall on it. Callers
// issue it a few references ahead; it changes no result.
func (a *ApproxAnalyzer) Prefetch(addr trace.Addr) { a.last.Prefetch(addr) }

// AccessEvict records one reference and applies the streaming
// detector's eviction rule in the same call: once more than maxLive
// distinct addresses are live, the oldest are forgotten down to
// maxLive/2. It is exactly an Access followed by the detector's
// Distinct-gauge check — the fused entry point exists so the ingest hot
// path pays one concrete call per reference instead of a call, a gauge
// read, and a branch. maxLive <= 0 disables eviction.
func (a *ApproxAnalyzer) AccessEvict(addr trace.Addr, maxLive int) int64 {
	d := a.Access(addr)
	if maxLive > 0 && a.live > int64(maxLive) {
		a.EvictOldest(maxLive / 2)
	}
	return d
}

// Distinct returns the number of distinct elements tracked: those seen
// and not evicted since.
func (a *ApproxAnalyzer) Distinct() int { return int(a.live) }

// EvictOldest caps the analyzer's memory at maxLive tracked elements by
// forgetting the least-recently-accessed ones: whole oldest buckets are
// dropped until at most maxLive live elements remain, and the newest
// time they covered becomes the eviction floor. The addresses whose
// last access is at or below the floor stay in the last-access index
// as dead entries until Access reuses or purges them, so an eviction
// costs O(B), not a sweep of the index. A later access to an evicted
// address reads as a cold miss (Infinite), the same graceful
// degradation a smaller profiling window would give. It returns the
// number of elements evicted.
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
	a.tgt = a.targetBuckets()
	a.rebuild()
	// Every address's single live slot is its last-access time, so the
	// evicted addresses are exactly those at or before the cutoff.
	a.floor = cutoff
	return int(dropped)
}

// Buckets returns the current bucket count (the memory bound under
// test: O(log(M)/ε) instead of O(M)).
func (a *ApproxAnalyzer) Buckets() int { return len(a.buckets) }

// findHead returns the index of the head bucket containing time x,
// which is older than the tail.
func (a *ApproxAnalyzer) findHead(x int64) int {
	lo, hi := 0, a.n0
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if a.buckets[m].maxTime < x {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// headPrefix returns the live elements in the n oldest buckets, n <= n0.
func (a *ApproxAnalyzer) headPrefix(n int) int64 {
	var s int64
	for ; n > 0; n &= n - 1 {
		s += a.tree[n]
	}
	return s
}

// tailNewer returns the live elements in tail buckets newer than
// buckets[n0+k]. Bits past the tail's end are never set.
func (a *ApproxAnalyzer) tailNewer(k int) int64 {
	w := k >> 6
	n := bits.OnesCount64(a.tail[w] >> (uint(k&63) + 1))
	for _, x := range a.tail[w+1:] {
		n += bits.OnesCount64(x)
	}
	return int64(n)
}

// rebuild makes every bucket a head bucket: it recomputes the Fenwick
// tree from the bucket counts in O(B) and empties the tail. Every path
// that rewrites buckets wholesale or lowers live (compaction, eviction,
// restore) ends here, the latter two after refreshing tgt. A grown
// tree is sized for the largest bucket count the target allows before
// the next compaction, so steady-state rebuilds reuse it.
func (a *ApproxAnalyzer) rebuild() {
	n := len(a.buckets)
	a.n0, a.t0 = n, a.now
	a.tail = a.tail[:0]
	if cap(a.tree) < n+1 {
		a.tree = make([]int64, 0, max(4*a.tgt+2, n+1))
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
