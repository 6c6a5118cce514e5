package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"lpp/internal/sampling"
	"lpp/internal/wavelet"
)

// filterSamples filters each data sample's sub-trace and returns the
// survivors' indices into res.Samples in time order. Each sub-trace
// is filtered independently (the filter sees only that sample's
// distance signal), so above one worker the sub-traces are fanned out
// across a bounded pool; the per-sub-trace survivors are merged in
// sub-trace order and sorted into time order, making the result
// bit-identical at any worker count.
func filterSamples(res sampling.Result, fam wavelet.Family, minSubTrace int, keepIrregular bool, workers int) []int {
	subs := res.SubTraces()
	kept := make([][]int, len(subs))
	var next atomic.Int64
	filterNext := func() {
		signal := make([]float64, 0, 64)
		filter := NewSubTraceFilter(fam, keepIrregular)
		for {
			i := int(next.Add(1)) - 1
			if i >= len(subs) {
				return
			}
			sub := subs[i]
			if len(sub) < minSubTrace {
				continue
			}
			signal = signal[:0]
			for _, si := range sub {
				signal = append(signal, float64(res.Samples[si].Dist))
			}
			for j, k := range filter.Filter(signal) {
				if k {
					kept[i] = append(kept[i], sub[j])
				}
			}
		}
	}
	if workers = min(workers, len(subs)); workers <= 1 {
		filterNext()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				filterNext()
			}()
		}
		wg.Wait()
	}

	var filtered []int
	for _, ks := range kept {
		filtered = append(filtered, ks...)
	}
	sort.Ints(filtered)
	return filtered
}
