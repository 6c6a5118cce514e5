// Package reuse computes LRU stack distance (reuse distance) exactly in
// O(log M) time per access, following Mattson et al. [24] as used by
// Ding and Zhong [12]. The reuse distance of an access is the number of
// distinct data elements referenced between this access and the
// previous access to the same element; an element with reuse distance d
// sits at depth d+1 of the LRU stack, so the access hits in a
// fully-associative LRU cache of capacity C iff d < C.
//
// The implementation keeps, for every live element, the logical time of
// its most recent access in an open-addressing address index
// (trace.AddrIndex: one probe sequence both reads the previous time and
// stores the new one), and a Fenwick (binary indexed) tree with one
// set bit per live element at that time. The distance of an access is
// then a single prefix-sum query. Because logical time grows without
// bound while the number of live elements does not, the tree is
// periodically compacted: live last-access times are remapped onto a
// dense prefix, preserving order. Compaction is O(M log M) and happens
// every O(capacity) accesses, so the amortized cost stays logarithmic.
package reuse

import (
	"slices"

	"lpp/internal/trace"
)

// Infinite is the distance reported for a cold (first-ever) access.
const Infinite = int64(-1)

// Analyzer measures the reuse distance of a stream of accesses. Its
// steady-state Access loop, compactions included, allocates nothing
// (TestAnalyzerAccessZeroAllocs).
type Analyzer struct {
	last *trace.AddrIndex // element -> last access time (tree index)
	tree []int64          // Fenwick tree over time slots, 1-based
	now  int64            // next time slot to use

	// scratch is reused across compactions so the steady state of
	// the Access hot loop allocates nothing.
	scratch []int64
}

// lastHint pre-sizes the last-access index: the analyzer sits on the
// hot path of every sampled access, and growing the index from empty
// costs a cascade of re-seats during the first thousands of accesses.
const lastHint = 1 << 12

// NewAnalyzer returns an empty Analyzer.
func NewAnalyzer() *Analyzer {
	return &Analyzer{
		last: trace.NewAddrIndex(lastHint),
		tree: make([]int64, 1<<16),
		now:  0,
	}
}

// Access records a reference to addr and returns its reuse distance:
// the number of distinct other elements accessed since the previous
// reference to addr, or Infinite if addr has never been accessed.
func (a *Analyzer) Access(addr trace.Addr) int64 {
	if a.now+1 >= int64(len(a.tree)) {
		a.compact()
	}
	t := a.now
	a.now++
	prev, seen := a.last.Swap(addr, t)
	a.add(t, 1)
	if !seen {
		return Infinite
	}
	// Distinct elements strictly between prev and t: every live
	// element has exactly one set bit at its last access time, and
	// addr's own bit is at prev, so sum over (prev, t) counts others.
	d := a.sum(t-1) - a.sum(prev)
	a.add(prev, -1)
	return d
}

// Distinct returns the number of distinct elements seen so far.
func (a *Analyzer) Distinct() int { return a.last.Len() }

// compact remaps live last-access times onto 0..n-1 (order-preserving)
// and rebuilds the Fenwick tree, growing it if the live set needs room.
// The scratch buffer and the tree itself are reused across compactions,
// so a steady-state compaction performs no allocations: ranks come from
// a binary search over the sorted live times (each live element holds a
// distinct time, so the search is exact), and the rebuilt tree — one
// set bit per slot 0..n-1 — is written directly in one O(size) pass
// instead of n individual O(log size) point updates.
func (a *Analyzer) compact() {
	times := a.scratch[:0]
	a.last.Range(func(_ trace.Addr, t *int64) {
		times = append(times, *t)
	})
	slices.Sort(times)
	a.scratch = times
	size := len(a.tree)
	for size < 4*(len(times)+1) || size < 1<<16 {
		size *= 2
	}
	if size == len(a.tree) {
		clear(a.tree)
	} else {
		a.tree = make([]int64, size)
	}
	a.last.Range(func(_ trace.Addr, t *int64) {
		r, _ := slices.BinarySearch(times, *t)
		*t = int64(r)
	})
	// Slots 0..n-1 (tree indices 1..n) each hold one set bit; a
	// Fenwick node i covers (i-lowbit(i), i], so its value is the
	// overlap of that range with [1, n].
	n := int64(len(times))
	for i := int64(1); i < int64(len(a.tree)); i++ {
		lo := i - i&(-i)
		if lo >= n {
			continue
		}
		hi := i
		if hi > n {
			hi = n
		}
		a.tree[i] = hi - lo
	}
	a.now = n
}

// add adds delta at time slot t (0-based externally, 1-based in tree).
func (a *Analyzer) add(t, delta int64) {
	for i := t + 1; i < int64(len(a.tree)); i += i & (-i) {
		a.tree[i] += delta
	}
}

// sum returns the number of set bits in slots [0, t].
func (a *Analyzer) sum(t int64) int64 {
	if t < 0 {
		return 0
	}
	var s int64
	for i := t + 1; i > 0; i -= i & (-i) {
		s += a.tree[i]
	}
	return s
}
