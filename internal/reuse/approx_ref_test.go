package reuse

import (
	"sort"

	"lpp/internal/trace"
)

// refApprox is a frozen copy of the ApproxAnalyzer algorithm in its
// plainest form, kept as a test oracle: it recomputes the compaction
// target on every access and sums the newer buckets linearly, so each
// access costs O(B + log₁₊ε live). The production analyzer caches the
// target, locates and counts the unit buckets appended since its last
// compaction by arithmetic and popcount, and keeps the older buckets'
// counts in a Fenwick tree; both must agree with this one bit for bit
// — distances, bucket counts and State().
type refApprox struct {
	eps     float64
	last    map[trace.Addr]int64
	buckets []approxBucket
	now     int64
	live    int64
}

func newRefApprox(eps float64) *refApprox {
	if eps <= 0 || eps >= 1 {
		eps = 0.05
	}
	return &refApprox{eps: eps, last: make(map[trace.Addr]int64)}
}

func (a *refApprox) Access(addr trace.Addr) int64 {
	t := a.now
	a.now++
	prev, seen := a.last[addr]
	a.last[addr] = t

	dist := Infinite
	if seen {
		idx := sort.Search(len(a.buckets), func(i int) bool {
			return a.buckets[i].maxTime >= prev
		})
		var after int64
		for i := idx + 1; i < len(a.buckets); i++ {
			after += a.buckets[i].count
		}
		dist = after + (a.buckets[idx].count-1)/2
		a.buckets[idx].count--
		a.live--
	}
	a.buckets = append(a.buckets, approxBucket{maxTime: t, count: 1})
	a.live++
	if len(a.buckets) > 4*a.targetBuckets() {
		a.compact()
	}
	return dist
}

func (a *refApprox) AccessEvict(addr trace.Addr, maxLive int) int64 {
	d := a.Access(addr)
	if maxLive > 0 && len(a.last) > maxLive {
		a.EvictOldest(maxLive / 2)
	}
	return d
}

func (a *refApprox) EvictOldest(maxLive int) int {
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
	a.buckets = a.buckets[i:]
	a.live -= dropped
	for addr, t := range a.last {
		if t <= cutoff {
			delete(a.last, addr)
		}
	}
	return int(dropped)
}

func (a *refApprox) Buckets() int { return len(a.buckets) }

func (a *refApprox) Distinct() int { return len(a.last) }

func (a *refApprox) targetBuckets() int {
	n := 64
	for m := a.live; m > 1; m = int64(float64(m) / (1 + a.eps)) {
		n++
	}
	return n
}

func (a *refApprox) compact() {
	n := len(a.buckets)
	newer := make([]int64, n)
	var acc int64
	for i := n - 1; i >= 0; i-- {
		newer[i] = acc
		acc += a.buckets[i].count
	}
	out := a.buckets[:0]
	for i := 0; i < n; i++ {
		b := a.buckets[i]
		if b.count == 0 && len(out) > 0 {
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
}

// State builds the ApproxState the production analyzer would report
// for the same contents.
func (a *refApprox) State() ApproxState {
	st := ApproxState{Eps: a.eps, Now: a.now, Live: a.live,
		Addrs: []trace.Addr{}, Times: []int64{},
		BucketTimes: []int64{}, BucketCounts: []int64{}}
	for addr := range a.last {
		st.Addrs = append(st.Addrs, addr)
	}
	sort.Slice(st.Addrs, func(i, j int) bool { return st.Addrs[i] < st.Addrs[j] })
	for _, addr := range st.Addrs {
		st.Times = append(st.Times, a.last[addr])
	}
	for _, b := range a.buckets {
		st.BucketTimes = append(st.BucketTimes, b.maxTime)
		st.BucketCounts = append(st.BucketCounts, b.count)
	}
	return st
}
