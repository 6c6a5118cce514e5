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
// stores the new one), and a bitmap over time slots with one set bit
// per live element, at that time. The bitmap is cut into 512-slot
// blocks, each one 64-byte cache line of eight words. An int32 Fenwick
// tree over the blocks counts the set bits of every closed block, and
// one scalar counts those of the open block, the one the clock is in;
// when the clock enters a new block, the scalar is added to the tree.
// The distance of a reuse is the number of live elements newer than
// its previous access prev, live − 1 − rank(prev), where rank(prev),
// the set bits before prev, is a prefix sum over the tree (or live
// minus the open block's count, if prev is in it) plus masked
// popcounts of at most eight words in prev's cache line. Moving the
// element's bit clears prev's bit, decrements prev's block and sets the
// current time's bit. The tree has one int32 per 512 slots and the
// bitmap one bit per slot, so both stay cache-resident where a tree
// with a word per slot would not. Because logical time grows without
// bound while the number of live elements does not, the bitmap is
// periodically compacted: each live last-access time is remapped to
// its rank, preserving order, and the first n bits are set. Compaction
// costs O(bitmap words + live elements) and happens every O(bitmap
// size) accesses, so the amortized cost stays logarithmic.
package reuse

import (
	"math/bits"

	"lpp/internal/trace"
)

// Infinite is the distance reported for a cold (first-ever) access.
const Infinite = int64(-1)

// Analyzer measures the reuse distance of a stream of accesses. Its
// steady-state Access loop, compactions included, allocates nothing
// (TestAnalyzerAccessZeroAllocs). A fresh Analyzer holds a 1<<16-slot
// (8 KB) bitmap and a small index, and both grow with the live set
// (TestNewAnalyzerSmall).
type Analyzer struct {
	last *trace.AddrIndex // element -> last access time (bitmap slot)
	// live holds one set bit per live element, at its last access
	// time; len(live)*64 slots.
	live []uint64
	// tree is a Fenwick tree, 1-based, over the set-bit counts of the
	// bitmap's 512-slot blocks: block b is index b+1. It holds the
	// closed blocks; open counts the set bits of the rest, all in the
	// block holding now-1.
	tree []int32
	open int32
	now  int64 // next time slot to use
	// scratch holds, during compaction, the set bits before each word.
	scratch []uint32
}

const (
	// blockShift cuts the bitmap into blocks of 512 slots: eight
	// words, one 64-byte cache line.
	blockShift = 9
	blockSlots = 1 << blockShift
	// minSlots is the bitmap's initial and smallest size.
	minSlots = 1 << 16
)

// lastHint pre-sizes the last-access index small, so that an analyzer
// over a short stream costs little to create; the index doubles as the
// live set grows.
const lastHint = 1 << 7

// NewAnalyzer returns an empty Analyzer.
func NewAnalyzer() *Analyzer {
	return &Analyzer{
		last: trace.NewAddrIndex(lastHint),
		live: make([]uint64, minSlots/64),
		tree: make([]int32, minSlots/blockSlots),
	}
}

// Access records a reference to addr and returns its reuse distance:
// the number of distinct other elements accessed since the previous
// reference to addr, or Infinite if addr has never been accessed.
func (a *Analyzer) Access(addr trace.Addr) int64 {
	if a.now == int64(len(a.live))*64 {
		a.compact()
	}
	t := a.now
	a.now++
	if t&(blockSlots-1) == 0 && a.open != 0 {
		a.add(int(t>>blockShift)-1, a.open)
		a.open = 0
	}
	prev, seen := a.last.Swap(addr, t)
	live := a.live
	d := Infinite
	if seen {
		// rank counts the set bits before prev: those below it in its
		// word and in the earlier words of its line, plus every
		// earlier block's, which is n - open when prev is in the open
		// block. Each live element has one bit and addr's is at prev,
		// so the elements newer than prev are the rest but one.
		w, b := int(prev>>6), int(prev>>blockShift)
		rank := bits.OnesCount64(live[w] & (1<<(prev&63) - 1))
		for _, x := range live[b<<3 : w] {
			rank += bits.OnesCount64(x)
		}
		n := a.last.Len()
		if b == int(t>>blockShift) {
			rank += n - int(a.open)
			a.open--
		} else {
			for i := b; i > 0; i &= i - 1 {
				rank += int(a.tree[i])
			}
			a.add(b, -1)
		}
		live[w] &^= 1 << (prev & 63)
		d = int64(n - 1 - rank)
	}
	live[t>>6] |= 1 << (t & 63)
	a.open++
	return d
}

// Prefetch starts loading the last-access slot that a later Access to
// addr probes first, so that Access need not stall on it. Callers
// issue it a few references ahead; it changes no result.
func (a *Analyzer) Prefetch(addr trace.Addr) { a.last.Prefetch(addr) }

// add adds v to block b's count in the tree.
func (a *Analyzer) add(b int, v int32) {
	tree := a.tree
	for i := b + 1; i < len(tree); i += i & -i {
		tree[i] += v
	}
}

// Distinct returns the number of distinct elements seen so far.
func (a *Analyzer) Distinct() int { return a.last.Len() }

// compact remaps live last-access times onto 0..n-1 (order-preserving)
// and rebuilds the bitmap and the tree, growing them if the live set
// needs room. A steady-state compaction performs no allocations and no
// sort:
//
//  1. prefix-sum the popcounts of the words before now into scratch,
//     so scratch[w] is the number of live times before word w;
//  2. remap each live entry to its rank: scratch[t/64] plus the set
//     bits below t in its word;
//  3. set the first n bits of the bitmap and rebuild the tree for
//     the n>>9 full blocks in one O(size) pass; the rest of the last
//     set bits form the open block.
func (a *Analyzer) compact() {
	used := int((a.now + 63) >> 6) // slots at or after now hold no bits
	if len(a.scratch) < used {
		a.scratch = make([]uint32, len(a.live))
	}
	before, live := a.scratch[:used], a.live[:used]
	var c uint32
	for w, x := range live {
		before[w] = c
		c += uint32(bits.OnesCount64(x))
	}
	a.last.Range(func(_ trace.Addr, t *int64) {
		w := *t >> 6
		*t = int64(before[w]) + int64(bits.OnesCount64(live[w]&(1<<(*t&63)-1)))
	})
	n := a.last.Len()
	slots := len(a.live) * 64
	for slots < 4*(n+1) || slots < minSlots {
		slots *= 2
	}
	if slots != len(a.live)*64 {
		a.live = make([]uint64, slots/64)
		a.tree = make([]int32, slots/blockSlots)
	} else {
		clear(live)
	}
	for w := range a.live[:n/64] {
		a.live[w] = ^uint64(0)
	}
	if n%64 != 0 {
		a.live[n/64] = 1<<(n%64) - 1
	}
	// Blocks 0..full-1 each hold 512 set bits; a Fenwick node i covers
	// blocks [i-lowbit(i), i), so its value is 512 times that range's
	// overlap with [0, full).
	full := n >> blockShift
	for i := range a.tree {
		a.tree[i] = int32(max(min(i, full)-(i-i&-i), 0) << blockShift)
	}
	a.open = int32(n & (blockSlots - 1))
	a.now = int64(n)
}
