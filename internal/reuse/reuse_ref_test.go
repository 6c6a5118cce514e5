package reuse

import (
	"slices"

	"lpp/internal/trace"
)

// refExact is a frozen copy of the exact Analyzer algorithm before its
// walks were fused, kept as a test oracle: two full-height prefix-sum
// walks and two full-height point updates per access, and compaction
// by sorting the live times and binary-searching each one's rank. The
// production analyzer must report the same distance for every access.
type refExact struct {
	last    *trace.AddrIndex
	tree    []int64
	now     int64
	scratch []int64
}

func newRefExact() *refExact {
	return &refExact{last: trace.NewAddrIndex(lastHint), tree: make([]int64, 1<<16)}
}

func (a *refExact) Access(addr trace.Addr) int64 {
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
	d := a.sum(t-1) - a.sum(prev)
	a.add(prev, -1)
	return d
}

func (a *refExact) compact() {
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
	n := int64(len(times))
	for i := int64(1); i < int64(len(a.tree)); i++ {
		lo := i - i&(-i)
		if lo >= n {
			continue
		}
		a.tree[i] = min(i, n) - lo
	}
	a.now = n
}

func (a *refExact) add(t, delta int64) {
	for i := t + 1; i < int64(len(a.tree)); i += i & (-i) {
		a.tree[i] += delta
	}
}

func (a *refExact) sum(t int64) int64 {
	if t < 0 {
		return 0
	}
	var s int64
	for i := t + 1; i > 0; i -= i & (-i) {
		s += a.tree[i]
	}
	return s
}
