package online

import (
	"lpp/internal/trace"
)

// AccessBatch feeds a decoded chunk of trace events to the detector in
// one call: one loop over the events, calling Block for a block event
// and step, the body of Access, for an access. It is therefore exactly
// the per-event Block/Access sequence, without the Instrumenter
// interface dispatch per event. Load shedding (stride > 1) lives in
// step, so the degraded regime batches exactly like the healthy one.
//
// Allocation: the dispatch loop and the analyzer half of step (the
// last-access index probe, bucket update, compaction, eviction, and
// the purge of evicted index entries) allocate nothing in the steady
// state, and neither does the sampler's datum lookup, a probe of the
// same kind of index — TestAccessBatchHotPathZeroAllocs and
// reuse.TestApproxAccessEvictZeroAllocs pin that. Sample decisions
// allocate nothing either once warm: the detector's one
// core.SubTraceFilter reuses its buffers (TestSubTraceFilterZeroAllocs).
// What remains allocates per datum or per boundary rather than per
// event: recordSample grows new datums' windows, and a boundary
// snapshots the grammar, partitions the window and opens a segment
// signature; the hierarchy memo compiles only structure it has not
// seen. On the fft trace of BenchmarkAccessColumns that is ~250
// allocations per 8K-event chunk; TestAccessBatchAmortizedAllocs
// bounds it per event on a real trace.
//
// Each access also prefetches the last-access slot of the access
// prefetchAhead events later, so the analyzer's index probe rarely
// waits on memory; the hint changes no result.
func (d *Detector) AccessBatch(events []trace.Event) {
	for i := range events {
		if j := i + prefetchAhead; j < len(events) && events[j].Kind != trace.EventBlock {
			d.analyzer.Prefetch(events[j].Addr)
		}
		if ev := &events[i]; ev.Kind == trace.EventBlock {
			d.Block(ev.Block, ev.Instrs)
		} else {
			d.step(ev.Addr)
		}
	}
}

// prefetchAhead is how many references ahead the batch entry points
// prefetch the analyzer's last-access slot: far enough that the load
// lands before step probes it, near enough that it is not evicted
// again first.
const prefetchAhead = 8

// AccessColumns feeds a decoded v2 chunk to the detector straight from
// its columns, without materializing []trace.Event: the kinds bitmap is
// walked in stream order, block events fold their counters from the
// dense block columns, and each maximal run of accesses streams the
// address column through step, the per-access body AccessBatch calls.
// The golden suites pin AccessColumns bit-identical to the per-event
// and row-batch paths. The column walk adds no allocation of its own;
// what step allocates is as described on AccessBatch. Like AccessBatch
// it prefetches prefetchAhead addresses ahead; the address column is
// contiguous, so the hint runs across block events.
func (d *Detector) AccessColumns(c *trace.Columns) {
	ai, bi := 0, 0
	i := 0
	for i < c.N {
		if c.IsBlock(i) {
			d.blocks++
			d.instrs += int64(c.Instrs[bi])
			bi++
			i++
			continue
		}
		j := i + 1
		for j < c.N && !c.IsBlock(j) {
			j++
		}
		for k, addr := range c.Addrs[ai : ai+(j-i)] {
			if ahead := ai + k + prefetchAhead; ahead < len(c.Addrs) {
				d.analyzer.Prefetch(c.Addrs[ahead])
			}
			d.step(addr)
		}
		ai += j - i
		i = j
	}
}

// step is the fused per-reference hot path shared by Access and both
// batch entry points: advance logical time, apply load shedding, run
// the analyzer with its eviction rule (one call via AccessEvict), then
// the sampling half. Keeping one body makes per-event/batched/columnar
// parity structural rather than re-proven per path.
func (d *Detector) step(addr trace.Addr) {
	t := d.now
	d.now++

	// Load shedding: under pressure only every stride-th access is
	// analyzed; the rest advance time only. Reuse distances shrink by
	// about the stride, and the threshold feedback re-adapts.
	if d.stride > 1 {
		d.strideAt++
		if d.strideAt < int64(d.stride) {
			d.shed++
			return
		}
		d.strideAt = 0
	}

	dist := d.analyzer.AccessEvict(addr, d.cfg.MaxLive)
	d.sample(t, addr, dist)
}
