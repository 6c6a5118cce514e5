package reuse

import (
	"sync"

	"lpp/internal/trace"
)

// minSegment is the shortest segment SplitDistances hands one analyzer.
// Every segment's analyzer starts from empty and hands its first
// touches back to its left neighbour for replay, so a segment much
// shorter than its working set would cost more in hand-back than it
// saves; a trace shorter than two segments stays on one analyzer.
const minSegment = 1 << 15

// publishEvery is how many distances analyzer 0 measures or replays
// between announcements of its progress to the caller.
const publishEvery = 1 << 14

// prefetchAhead is how many accesses ahead analyze prefetches the
// analyzer's last-access slot: far enough that the load lands before
// Access probes it, near enough that it is not evicted again first.
const prefetchAhead = 8

// SplitDistances measures the exact reuse distance of every access —
// each equal to what one Analyzer reports over the whole slice — on up
// to k segments of at least minSegment accesses, one goroutine each,
// after the scheme of PARDA (Niu, Kim and Ding, IPDPS 2012).
//
// Analyzer j runs its own segment from empty and keeps the indices of
// its local first touches. It then replays, in stream order, the list
// analyzer j+1 hands back — j+1's own first touches followed by the
// entries of j+1's incoming list that stayed Infinite — and resolves
// every entry whose address it has seen. This is exact: for a first
// touch of a at time t whose previous access lies in segment j, the
// distinct addresses in between are those after that access in segment
// j plus the first touches of the later segments before t, and the
// hand-back list holds exactly those later first touches in order.
// Whatever is still Infinite after analyzer 0 is truly cold.
//
// The leading distances become final in order: segment 0's as analyzer
// 0 measures them, every later one once analyzer 0's replay has passed
// it. SplitDistances hands each newly final run to ready on the
// caller's goroutine, as ready(lo, dists[lo:hi]) with lo where the
// previous run ended, blocking in between, so the caller can consume
// distances while the rest are measured. It returns every distance
// once all goroutines have exited.
func SplitDistances(accesses []trace.Addr, k int, ready func(lo int, dists []int64)) []int64 {
	return splitAt(accesses, segmentStarts(len(accesses), k), ready)
}

// segmentStarts cuts n accesses into at most k equal segments of at
// least minSegment accesses and returns each segment's first index.
func segmentStarts(n, k int) []int {
	k = max(min(k, n/minSegment), 1)
	starts := make([]int, k)
	for j := range starts {
		starts[j] = j * n / k
	}
	return starts
}

// split is the state the analyzers of one SplitDistances share with
// its caller.
type split struct {
	accesses []trace.Addr
	dists    []int64

	mu    sync.Mutex
	cond  sync.Cond
	final int // leading distances that are final
}

// splitAt is SplitDistances cut at starts: starts[j] is segment j's
// first index (starts[0] == 0, non-decreasing, so segments may be
// empty).
func splitAt(accesses []trace.Addr, starts []int, ready func(lo int, dists []int64)) []int64 {
	s := &split{accesses: accesses, dists: make([]int64, len(accesses))}
	s.cond.L = &s.mu
	k := len(starts)
	// back[j] carries analyzer j's hand-back list to analyzer j-1;
	// each gets exactly one send, so a buffer of one never blocks.
	back := make([]chan []int, k)
	for j := range back {
		back[j] = make(chan []int, 1)
	}
	var wg sync.WaitGroup
	for j := 0; j < k; j++ {
		hi := len(accesses)
		if j+1 < k {
			hi = starts[j+1]
		}
		var in, out chan []int
		if j+1 < k {
			in = back[j+1]
		}
		if j > 0 {
			out = back[j]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.analyze(starts[j], hi, in, out)
		}()
	}
	for lo := 0; lo < len(accesses); {
		hi := s.wait(lo)
		ready(lo, s.dists[lo:hi])
		lo = hi
	}
	wg.Wait()
	return s.dists
}

// analyze measures segment [lo, hi) from empty, then replays the
// hand-back list from in (nil for the last segment). Analyzer 0 (out
// nil) publishes its progress as it goes; every other analyzer sends
// its own first touches, then the replayed entries it could not
// resolve, to out.
func (s *split) analyze(lo, hi int, in <-chan []int, out chan<- []int) {
	an := NewAnalyzer()
	var cold []int
	for c := lo; c < hi; c += publishEvery {
		end := min(c+publishEvery, hi)
		for i, a := range s.accesses[c:end] {
			if j := c + i + prefetchAhead; j < hi {
				an.Prefetch(s.accesses[j])
			}
			dist := an.Access(a)
			s.dists[c+i] = dist
			if dist == Infinite && out != nil {
				cold = append(cold, c+i)
			}
		}
		if out == nil {
			s.publish(end)
		}
	}
	if in != nil {
		list := <-in
		for n, i := range list {
			if out == nil && n%publishEvery == 0 {
				s.publish(i)
			}
			if j := n + prefetchAhead; j < len(list) {
				an.Prefetch(s.accesses[list[j]])
			}
			if dist := an.Access(s.accesses[i]); dist != Infinite {
				s.dists[i] = dist
			} else if out != nil {
				cold = append(cold, i)
			}
		}
	}
	if out != nil {
		out <- cold
	} else {
		s.publish(len(s.accesses))
	}
}

// publish announces that the leading final distances are final.
func (s *split) publish(final int) {
	s.mu.Lock()
	s.final = final
	s.mu.Unlock()
	s.cond.Broadcast()
}

// wait blocks until more than have leading distances are final and
// returns how many are; have must be below the trace length.
func (s *split) wait(have int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.final <= have {
		s.cond.Wait()
	}
	return s.final
}
