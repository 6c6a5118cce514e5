package online

import (
	"lpp/internal/trace"
)

// AccessBatch feeds a decoded chunk of trace events to the detector in
// one call. It is exactly equivalent to calling Block/Access once per
// event in order — the golden-trace suite pins that equivalence on all
// nine workloads plus the hostile tier — but it amortizes the per-event
// cost the streaming server would otherwise pay: no Instrumenter
// interface dispatch per event, and each run of consecutive data
// accesses goes through one fused loop doing analyzer access, eviction,
// and sampling together (step), with no intermediate address or
// distance buffers. Load shedding (stride > 1) is handled inside the
// same fused loop, so the degraded regime batches exactly like the
// healthy one.
//
// Allocation: the dispatch loop and the analyzer half of step (the
// last-access index probe, Fenwick update, compaction, and the
// eviction sweep of the index) allocate nothing in the steady state,
// and neither does the sampler's datum lookup, a probe of the same
// kind of index — TestAccessBatchHotPathZeroAllocs and
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
func (d *Detector) AccessBatch(events []trace.Event) {
	i := 0
	for i < len(events) {
		if events[i].Kind == trace.EventBlock {
			d.blocks++
			d.instrs += int64(events[i].Instrs)
			i++
			continue
		}
		j := i + 1
		for j < len(events) && events[j].Kind == trace.EventAccess {
			j++
		}
		for k := i; k < j; k++ {
			d.step(events[k].Addr)
		}
		i = j
	}
}

// AccessColumns feeds a decoded v2 chunk to the detector straight from
// its columns, without materializing []trace.Event: the kinds bitmap is
// walked in stream order, block events fold their counters from the
// dense block columns, and each maximal run of accesses streams the
// address column through the same fused step loop AccessBatch uses.
// The golden suites pin AccessColumns bit-identical to the per-event
// and row-batch paths. The column walk adds no allocation of its own;
// what the step loop allocates is as described on AccessBatch.
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
		for _, addr := range c.Addrs[ai : ai+(j-i)] {
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
