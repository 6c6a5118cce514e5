package reuse

import (
	"errors"
	"fmt"
	"slices"

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

// State snapshots the analyzer. The addresses are collected in one
// sweep of the index and sorted, so the result does not depend on the
// index's slot order; each time is then one index lookup.
func (a *ApproxAnalyzer) State() ApproxState {
	n := a.last.Len()
	st := ApproxState{
		Eps:          a.eps,
		Now:          a.now,
		Live:         a.live,
		Addrs:        make([]trace.Addr, 0, n),
		Times:        make([]int64, n),
		BucketTimes:  make([]int64, 0, len(a.buckets)),
		BucketCounts: make([]int64, 0, len(a.buckets)),
	}
	a.last.Range(func(addr trace.Addr, _ *int64) {
		st.Addrs = append(st.Addrs, addr)
	})
	slices.Sort(st.Addrs)
	for i, addr := range st.Addrs {
		st.Times[i], _ = a.last.Get(addr)
	}
	for _, b := range a.buckets {
		st.BucketTimes = append(st.BucketTimes, b.maxTime)
		st.BucketCounts = append(st.BucketCounts, b.count)
	}
	return st
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
		eps:  st.Eps,
		now:  st.Now,
		live: st.Live,
		last: trace.NewAddrIndex(len(st.Addrs)),
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
	a.buckets = make([]approxBucket, len(st.BucketTimes))
	for i := range st.BucketTimes {
		a.buckets[i] = approxBucket{maxTime: st.BucketTimes[i], count: st.BucketCounts[i]}
	}
	a.rebuild()
	return a, nil
}
