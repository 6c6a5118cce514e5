package reuse

import (
	"errors"
	"fmt"
	"sort"

	"lpp/internal/trace"
)

// ApproxState is the complete serializable state of an ApproxAnalyzer.
// It exists so a streaming detector can be checkpointed and recovered
// with bit-exact behavior: an analyzer restored from a State answers
// every future Access exactly as the original would have. Slices are
// ordered deterministically (the last-access table by address), so the
// same analyzer state always produces the same State.
type ApproxState struct {
	Eps  float64
	Now  int64
	Live int64
	// Addrs/Times is the last-access table, sorted by address.
	Addrs []trace.Addr
	Times []int64
	// BucketTimes/BucketCounts are the time buckets, oldest first.
	BucketTimes  []int64
	BucketCounts []int64
}

// State snapshots the analyzer. The live (address, time) pairs are
// collected in one sweep of the index, skipping entries at or below
// the eviction floor, and ordered by address with sortByAddr, so the
// result depends neither on the index's slot order nor on which dead
// entries it still holds.
func (a *ApproxAnalyzer) State() ApproxState {
	n := int(a.live)
	st := ApproxState{
		Eps:          a.eps,
		Now:          a.now,
		Live:         a.live,
		Addrs:        make([]trace.Addr, 0, n),
		Times:        make([]int64, 0, n),
		BucketTimes:  make([]int64, 0, len(a.buckets)),
		BucketCounts: make([]int64, 0, len(a.buckets)),
	}
	a.last.Range(func(addr trace.Addr, t *int64) {
		if *t > a.floor {
			st.Addrs = append(st.Addrs, addr)
			st.Times = append(st.Times, *t)
		}
	})
	st.Addrs, st.Times = sortByAddr(st.Addrs, st.Times)
	for _, b := range a.buckets {
		st.BucketTimes = append(st.BucketTimes, b.maxTime)
		st.BucketCounts = append(st.BucketCounts, b.count)
	}
	return st
}

// sortByAddr orders parallel (address, time) slices by address with an
// LSD radix sort: one counting pass per byte position, skipping every
// position where all addresses have the same byte — a program's
// addresses share their high bytes, so a 64-bit key usually takes
// three or four passes instead of eight. The sort is stable, so the
// order is the one a comparison sort gives (addresses from an index
// are distinct anyway). It returns the sorted pairs, which may live in
// fresh buffers instead of the arguments.
func sortByAddr(addrs []trace.Addr, times []int64) ([]trace.Addr, []int64) {
	and, or := ^trace.Addr(0), trace.Addr(0)
	for _, a := range addrs {
		and &= a
		or |= a
	}
	varying := and ^ or
	var (
		toAddrs []trace.Addr
		toTimes []int64
	)
	for shift := uint(0); shift < 64; shift += 8 {
		if (varying>>shift)&0xff == 0 {
			continue
		}
		if toAddrs == nil {
			toAddrs = make([]trace.Addr, len(addrs))
			toTimes = make([]int64, len(times))
		}
		var start [256]int
		for _, a := range addrs {
			start[(a>>shift)&0xff]++
		}
		sum := 0
		for b, c := range start {
			start[b] = sum
			sum += c
		}
		for i, a := range addrs {
			b := (a >> shift) & 0xff
			toAddrs[start[b]] = a
			toTimes[start[b]] = times[i]
			start[b]++
		}
		addrs, toAddrs = toAddrs, addrs
		times, toTimes = toTimes, times
	}
	return addrs, times
}

var errApproxState = errors.New("reuse: invalid analyzer state")

// NewApproxFromState reconstructs an analyzer from a State, validating
// every structural invariant the Access path relies on so a corrupted
// snapshot is rejected instead of causing a panic later.
func NewApproxFromState(st ApproxState) (*ApproxAnalyzer, error) {
	if st.Eps <= 0 || st.Eps >= 1 {
		return nil, fmt.Errorf("%w: eps %v out of (0,1)", errApproxState, st.Eps)
	}
	if st.Now < 0 || st.Live < 0 {
		return nil, fmt.Errorf("%w: negative clock", errApproxState)
	}
	if len(st.Addrs) != len(st.Times) {
		return nil, fmt.Errorf("%w: addr/time length mismatch", errApproxState)
	}
	if len(st.BucketTimes) != len(st.BucketCounts) {
		return nil, fmt.Errorf("%w: bucket length mismatch", errApproxState)
	}
	var sum int64
	maxTime := int64(-1)
	for i, t := range st.BucketTimes {
		if i > 0 && t <= st.BucketTimes[i-1] {
			return nil, fmt.Errorf("%w: bucket times not ascending", errApproxState)
		}
		if t >= st.Now {
			return nil, fmt.Errorf("%w: bucket time %d >= now %d", errApproxState, t, st.Now)
		}
		if st.BucketCounts[i] < 0 {
			return nil, fmt.Errorf("%w: negative bucket count", errApproxState)
		}
		sum += st.BucketCounts[i]
		maxTime = t
	}
	if sum != st.Live {
		return nil, fmt.Errorf("%w: live %d != bucket sum %d", errApproxState, st.Live, sum)
	}
	if int64(len(st.Addrs)) != st.Live {
		return nil, fmt.Errorf("%w: %d addrs but live %d", errApproxState, len(st.Addrs), st.Live)
	}
	a := &ApproxAnalyzer{
		eps:   st.Eps,
		now:   st.Now,
		live:  st.Live,
		last:  trace.NewAddrIndex(len(st.Addrs)),
		floor: -1,
	}
	for i, addr := range st.Addrs {
		if i > 0 && addr <= st.Addrs[i-1] {
			return nil, fmt.Errorf("%w: addrs not strictly ascending", errApproxState)
		}
		t := st.Times[i]
		if t < 0 || t > maxTime {
			return nil, fmt.Errorf("%w: last-access time %d outside buckets", errApproxState, t)
		}
		a.last.Swap(addr, t)
	}
	// Every bucket count must be the census of the last-access times it
	// covers: a reuse decrements its bucket, so a count short of its
	// census would later go negative.
	census := make([]int64, len(st.BucketTimes))
	for _, t := range st.Times {
		census[sort.Search(len(st.BucketTimes), func(i int) bool { return st.BucketTimes[i] >= t })]++
	}
	a.buckets = make([]approxBucket, len(st.BucketTimes))
	for i := range st.BucketTimes {
		if census[i] != st.BucketCounts[i] {
			return nil, fmt.Errorf("%w: bucket %d counts %d but covers %d last-access times",
				errApproxState, i, st.BucketCounts[i], census[i])
		}
		a.buckets[i] = approxBucket{maxTime: st.BucketTimes[i], count: st.BucketCounts[i]}
	}
	a.tgt = a.targetBuckets()
	a.rebuild()
	return a, nil
}
