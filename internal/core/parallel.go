package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"lpp/internal/sampling"
	"lpp/internal/wavelet"
)

// filterSamplesWorkers is filterSamples with the per-data-sample
// wavelet filtering fanned out across a bounded worker pool. Each data
// sample's sub-trace is filtered independently (the filter sees only
// that sample's distance signal), so the work is embarrassingly
// parallel; the per-sub-trace survivors are merged in sub-trace order
// and then sorted into time order exactly like the sequential path,
// making the result bit-identical at any worker count.
func filterSamplesWorkers(res sampling.Result, fam wavelet.Family, minSubTrace int, keepIrregular bool, workers int) []int {
	subs := res.SubTraces()
	if workers > len(subs) {
		workers = len(subs)
	}
	if workers <= 1 {
		return filterSamples(res, fam, minSubTrace, keepIrregular)
	}

	kept := make([][]int, len(subs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
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
		}()
	}
	wg.Wait()

	var filtered []int
	for _, ks := range kept {
		filtered = append(filtered, ks...)
	}
	sort.Ints(filtered)
	return filtered
}
