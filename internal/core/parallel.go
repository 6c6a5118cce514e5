package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"lpp/internal/reuse"
	"lpp/internal/sampling"
	"lpp/internal/trace"
	"lpp/internal/wavelet"
)

// distBatch is the number of accesses forwarded to the reuse-distance
// goroutine at a time. Large enough to amortize channel synchronization
// against millions of accesses, small enough that the analyzer starts
// crunching long before the workload finishes.
const distBatch = 1 << 13

// distPipeline is a trace.Instrumenter that streams the access stream,
// in order, to a dedicated goroutine running the exact reuse-distance
// analyzer. The analyzer is strictly sequential (each distance depends
// on all prior accesses), but it is also the dominant cost of sampling,
// so overlapping it with trace generation hides the workload's own
// execution time entirely.
type distPipeline struct {
	batch []trace.Addr
	ch    chan []trace.Addr
	free  chan []trace.Addr // recycled batch buffers
	done  chan struct{}
	dists []int64
}

func newDistPipeline() *distPipeline {
	p := &distPipeline{
		batch: make([]trace.Addr, 0, distBatch),
		ch:    make(chan []trace.Addr, 8),
		free:  make(chan []trace.Addr, 8),
		done:  make(chan struct{}),
	}
	go func() {
		defer close(p.done)
		an := reuse.NewAnalyzer()
		for batch := range p.ch {
			for _, addr := range batch {
				p.dists = append(p.dists, an.Access(addr))
			}
			select {
			case p.free <- batch[:0]:
			default:
			}
		}
	}()
	return p
}

// Block implements trace.Instrumenter (ignored: only accesses have
// reuse distances).
func (p *distPipeline) Block(trace.BlockID, int) {}

// Access implements trace.Instrumenter.
func (p *distPipeline) Access(addr trace.Addr) {
	p.batch = append(p.batch, addr)
	if len(p.batch) == cap(p.batch) {
		p.flush()
	}
}

func (p *distPipeline) flush() {
	if len(p.batch) == 0 {
		return
	}
	p.ch <- p.batch
	select {
	case b := <-p.free:
		p.batch = b
	default:
		p.batch = make([]trace.Addr, 0, distBatch)
	}
}

// Wait flushes the tail, waits for the analyzer to drain, and returns
// the distance of every access in stream order.
func (p *distPipeline) Wait() []int64 {
	p.flush()
	close(p.ch)
	<-p.done
	return p.dists
}

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
