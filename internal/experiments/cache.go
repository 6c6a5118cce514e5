package experiments

import (
	"runtime"
	"sync"

	"lpp/internal/workload"
)

// Cache memoizes per-workload analyses (training-run detection plus
// both reference-run prediction passes) across the tables and figures
// of one report run. Without it, every experiment that loops over
// workload.Predictable() replays and re-analyzes each workload's full
// training trace — the single most expensive computation in the
// repository — once per table; with it, each workload is analyzed
// exactly once and the result is shared read-only.
//
// A Cache is safe for concurrent use: concurrent requests for the same
// workload coalesce onto one computation (the losers block until the
// winner finishes), which is what lets Prewarm fan the workloads out
// across a worker pool while the experiments themselves stay strictly
// ordered.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
}

type cacheEntry struct {
	once sync.Once
	a    *analysis
	err  error
}

// NewCache returns an empty analysis cache. One cache must not span
// report runs with different Options.Quick settings: the analysis is
// keyed by workload name only, because all experiments of one run
// share one parameterization.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]*cacheEntry)}
}

// get returns the memoized analysis for spec, computing it at most
// once via compute.
func (c *Cache) get(spec workload.Spec, compute func() (*analysis, error)) (*analysis, error) {
	c.mu.Lock()
	e, ok := c.entries[spec.Name]
	if !ok {
		e = &cacheEntry{}
		c.entries[spec.Name] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.a, e.err = compute() })
	return e.a, e.err
}

// Prewarm analyzes the given workloads concurrently under a bounded
// worker pool of GOMAXPROCS workers, filling o.Cache so that
// subsequent experiments hit memoized analyses. Each workload's
// training trace is replayed exactly once per report run. At
// GOMAXPROCS 1 the workloads are analyzed one after another.
//
// The first error encountered is returned, but every in-flight
// analysis is allowed to finish so the cache is never half-built.
func (o Options) Prewarm(specs []workload.Spec) error {
	if o.Cache == nil {
		return nil
	}
	workers := max(min(runtime.GOMAXPROCS(0), len(specs)), 1)
	jobs := make(chan workload.Spec)
	errs := make(chan error, len(specs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spec := range jobs {
				if _, err := o.analyze(spec); err != nil {
					errs <- err
				}
			}
		}()
	}
	for _, spec := range specs {
		jobs <- spec
	}
	close(jobs)
	wg.Wait()
	close(errs)
	return <-errs
}
