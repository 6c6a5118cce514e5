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
// the count of set bits strictly between the previous and the current
// time: one descending walk from both ends that stops where the two
// index chains meet. Moving the element's bit to the current time is
// one ascending walk that stops where the two update chains merge,
// since above that node the -1 and +1 cancel. Because logical time
// grows without bound while the number of live elements does not, the
// tree is periodically compacted: live last-access times are remapped
// onto a dense prefix, preserving order. Compaction is an in-place rank
// scan in O(tree size) — unbuild the tree into its bits, prefix-sum
// them into ranks, look each live time's rank up — and happens every
// O(tree size) accesses, so the amortized cost stays logarithmic.
package reuse

import "lpp/internal/trace"

// Infinite is the distance reported for a cold (first-ever) access.
const Infinite = int64(-1)

// Analyzer measures the reuse distance of a stream of accesses. Its
// steady-state Access loop, compactions included, allocates nothing
// (TestAnalyzerAccessZeroAllocs).
type Analyzer struct {
	last *trace.AddrIndex // element -> last access time (tree index)
	tree []int64          // Fenwick tree over time slots, 1-based
	now  int64            // next time slot to use
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
	tree := a.tree
	n := int64(len(tree))
	if !seen {
		for i := t + 1; i < n; i += i & -i {
			tree[i]++
		}
		return Infinite
	}
	// Distinct elements strictly between prev and t: every live
	// element has exactly one set bit at its last access time, and
	// addr's own bit is at prev, so sum(t-1) - sum(prev) counts the
	// others. Both prefix walks descend to the same node, below which
	// their terms cancel; in 1-based tree indices they start at t and
	// prev+1, and the larger one steps until they meet.
	var d int64
	for i, j := t, prev+1; i != j; {
		if i > j {
			d += tree[i]
			i &= i - 1
		} else {
			d -= tree[j]
			j &= j - 1
		}
	}
	// Move addr's bit from prev to t: -1 up prev's chain and +1 up
	// t's, the smaller index stepping, until the chains merge or both
	// leave the tree. Above the merge node the updates cancel.
	for i, j := prev+1, t+1; i != j; {
		if i < j {
			if i >= n {
				break
			}
			tree[i]--
			i += i & -i
		} else {
			if j >= n {
				break
			}
			tree[j]++
			j += j & -j
		}
	}
	return d
}

// Distinct returns the number of distinct elements seen so far.
func (a *Analyzer) Distinct() int { return a.last.Len() }

// compact remaps live last-access times onto 0..n-1 (order-preserving)
// and rebuilds the Fenwick tree, growing it if the live set needs room.
// It works in place on the tree, so a steady-state compaction performs
// no allocations and no sort:
//
//  1. undo the linear Fenwick build, descending, so tree[p] holds the
//     bit of time slot p-1 again;
//  2. prefix-sum the bits into exclusive ranks: tree[p] becomes the
//     number of live times before slot p-1;
//  3. remap each live entry to its rank, tree[t+1];
//  4. rebuild the tree for the n dense slots in one O(size) pass.
func (a *Analyzer) compact() {
	tree := a.tree
	// Slots at or after now hold no bits, so the scan stops at now.
	top := min(a.now, int64(len(tree)-1))
	for i := top; i > 0; i-- {
		if j := i + i&-i; j <= top {
			tree[j] -= tree[i]
		}
	}
	var rank int64
	for p := int64(1); p <= top; p++ {
		bit := tree[p]
		tree[p] = rank
		rank += bit
	}
	a.last.Range(func(_ trace.Addr, t *int64) {
		*t = tree[*t+1]
	})
	n := int64(a.last.Len())
	size := len(tree)
	for size < 4*(int(n)+1) || size < 1<<16 {
		size *= 2
	}
	if size != len(tree) {
		a.tree = make([]int64, size)
	}
	// Slots 0..n-1 (tree indices 1..n) each hold one set bit; a
	// Fenwick node i covers (i-lowbit(i), i], so its value is the
	// overlap of that range with [1, n].
	for i := int64(1); i < int64(len(a.tree)); i++ {
		a.tree[i] = max(min(i, n)-(i-i&-i), 0)
	}
	a.now = n
}
