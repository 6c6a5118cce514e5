package online

import (
	"testing"

	"lpp/internal/phase"
	"lpp/internal/trace"
	"lpp/internal/workload"
)

// steadyChunk builds a server-shaped chunk — block events interleaved
// with access runs — over a small resident working set whose reuse
// distances stay below every sampling threshold.
func steadyChunk(n int) []trace.Event {
	const nAddrs = 64
	chunk := make([]trace.Event, 0, n)
	for i := 0; i < n; i++ {
		if i%512 == 0 {
			chunk = append(chunk, trace.Event{Kind: trace.EventBlock, Block: trace.BlockID(i / 512), Instrs: 10})
			continue
		}
		chunk = append(chunk, trace.Event{Kind: trace.EventAccess, Addr: trace.Addr((i % nAddrs) * 64)})
	}
	return chunk
}

// TestAccessBatchHotPathZeroAllocs pins the dispatch machinery —
// run-gathering, the analyzer batch call, scratch reuse, logical-time
// bookkeeping — at exactly zero allocations per chunk. Sampling is kept
// quiescent (resident working set below the qualification threshold,
// feedback deferred) so the guard isolates the ingest plumbing this PR
// owns from the detector's own bounded sampling work.
func TestAccessBatchHotPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-runtime allocations")
	}
	cfg := DefaultConfig()
	cfg.CheckEvery = 1 << 40 // no threshold feedback inside the run
	cfg.OnEvent = func(phase.Event) {}
	d := NewDetector(cfg)
	chunk := steadyChunk(4096)
	for i := 0; i < 8; i++ {
		d.AccessBatch(chunk) // settle analyzer compaction + scratch sizes
	}
	if avg := testing.AllocsPerRun(100, func() { d.AccessBatch(chunk) }); avg != 0 {
		t.Errorf("steady-state AccessBatch: %.2f allocs per %d-event chunk, want 0", avg, len(chunk))
	}
}

// TestAccessColumnsHotPathZeroAllocs pins the columnar feed — bitmap
// walk, fused analyzer/sampling loop, counter folds — at exactly zero
// allocations per chunk, the v2 analog of the AccessBatch guard above.
func TestAccessColumnsHotPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-runtime allocations")
	}
	cfg := DefaultConfig()
	cfg.CheckEvery = 1 << 40 // no threshold feedback inside the run
	cfg.OnEvent = func(phase.Event) {}
	d := NewDetector(cfg)
	data, err := trace.AppendChunkV2(nil, steadyChunk(4096))
	if err != nil {
		t.Fatal(err)
	}
	var cols trace.Columns
	if err := trace.DecodeChunkV2(data, &cols, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		d.AccessColumns(&cols) // settle analyzer compaction
	}
	if avg := testing.AllocsPerRun(100, func() { d.AccessColumns(&cols) }); avg != 0 {
		t.Errorf("steady-state AccessColumns: %.2f allocs per %d-event chunk, want 0", avg, cols.N)
	}
}

// TestLoadSheddingBatchParity pins the degraded regime: with pressure
// applied (stride > 1), the per-event, row-batch, and columnar paths
// must shed the same accesses and end in identical states. The batch
// paths used to fall back to per-event dispatch whenever stride > 1;
// now shedding is handled inside the fused loop, and this test is what
// holds that equivalence.
func TestLoadSheddingBatchParity(t *testing.T) {
	spec, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(1<<20, 1<<16)
	spec.Make(workload.Params{N: 512, Steps: 6, Seed: 1}).Run(rec)
	events := recordedEvents(&rec.T)

	// Pressure flips mid-stream, twice, so runs straddle stride changes.
	pressures := []float64{0.9, 0, 0.5}
	run := func(feed func(d *Detector, events []trace.Event)) Stats {
		cfg := DefaultConfig()
		cfg.OnEvent = func(phase.Event) {}
		d := NewDetector(cfg)
		per := (len(events) + len(pressures) - 1) / len(pressures)
		for i, p := range pressures {
			d.SetPressure(p)
			end := (i + 1) * per
			if end > len(events) {
				end = len(events)
			}
			feed(d, events[i*per:end])
		}
		d.Flush()
		return d.Stats()
	}

	perEvent := run(func(d *Detector, events []trace.Event) {
		for _, ev := range events {
			ev.Feed(d)
		}
	})
	if perEvent.Shed == 0 {
		t.Fatal("test did not exercise load shedding")
	}
	batched := run(func(d *Detector, events []trace.Event) {
		for off := 0; off < len(events); off += 777 {
			end := off + 777
			if end > len(events) {
				end = len(events)
			}
			d.AccessBatch(events[off:end])
		}
	})
	columns := run(func(d *Detector, events []trace.Event) {
		var (
			buf  []byte
			cols trace.Columns
		)
		for off := 0; off < len(events); off += 777 {
			end := off + 777
			if end > len(events) {
				end = len(events)
			}
			var err error
			if buf, err = trace.AppendChunkV2(buf[:0], events[off:end]); err != nil {
				t.Fatal(err)
			}
			if err := trace.DecodeChunkV2(buf, &cols, 0); err != nil {
				t.Fatal(err)
			}
			d.AccessColumns(&cols)
		}
	})
	if batched != perEvent {
		t.Errorf("batched stats diverge under shedding:\n got  %+v\n want %+v", batched, perEvent)
	}
	if columns != perEvent {
		t.Errorf("columnar stats diverge under shedding:\n got  %+v\n want %+v", columns, perEvent)
	}
}

// TestAccessBatchAmortizedAllocs bounds the full batched path —
// sampling, filtering, and boundary flushes included — on a real
// workload's trace. The sub-trace filter reuses its buffers and the
// hierarchy memo answers recurring boundaries, so what still allocates
// is per datum window growth and per boundary work (the grammar
// snapshot, partitioning, new phase signatures): about 0.03
// allocs/event on this trace. The bound of 0.25 catches the plumbing
// starting to allocate per *event*, and also per-sample or
// per-boundary work falling back to allocating as it did before the
// filter and the memo (≈1 alloc/event).
func TestAccessBatchAmortizedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-runtime allocations")
	}
	spec, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(1<<20, 1<<16)
	spec.Make(workload.Params{N: 512, Steps: 6, Seed: 1}).Run(rec)
	events := recordedEvents(&rec.T)

	cfg := DefaultConfig()
	cfg.OnEvent = func(phase.Event) {}
	d := NewDetector(cfg)
	const chunkLen = 8192
	off := 0
	feedNext := func() {
		if off+chunkLen > len(events) {
			off = 0
		}
		d.AccessBatch(events[off : off+chunkLen])
		off += chunkLen
	}
	for i := 0; i < 16; i++ {
		feedNext() // warm thresholds through a few feedback cycles
	}
	avg := testing.AllocsPerRun(50, feedNext)
	perEvent := avg / chunkLen
	if perEvent > 0.25 {
		t.Errorf("batched ingest allocates %.4f allocs/event (%.1f per %d-event chunk), want <= 0.25",
			perEvent, avg, chunkLen)
	}
}

func benchmarkEvents(b *testing.B) []trace.Event {
	b.Helper()
	spec, err := workload.ByName("fft")
	if err != nil {
		b.Fatal(err)
	}
	rec := trace.NewRecorder(1<<20, 1<<16)
	spec.Make(workload.Params{N: 512, Steps: 6, Seed: 1}).Run(rec)
	return recordedEvents(&rec.T)
}

// BenchmarkAccessBatch measures the batched ingest path on a real
// trace in server-sized chunks; compare against BenchmarkAccessPerEvent
// for the dispatch amortization this entry point exists to provide.
func BenchmarkAccessBatch(b *testing.B) {
	events := benchmarkEvents(b)
	cfg := DefaultConfig()
	cfg.OnEvent = func(phase.Event) {}
	d := NewDetector(cfg)
	const chunkLen = 8192
	b.ReportAllocs()
	b.ResetTimer()
	off := 0
	for i := 0; i < b.N; i++ {
		if off+chunkLen > len(events) {
			off = 0
		}
		d.AccessBatch(events[off : off+chunkLen])
		off += chunkLen
	}
	b.SetBytes(0)
	b.ReportMetric(float64(b.N)*chunkLen/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkAccessColumns measures the columnar feed on the same trace
// and chunk size as BenchmarkAccessBatch, minus the []trace.Event
// materialization the row path pays upstream.
func BenchmarkAccessColumns(b *testing.B) {
	events := benchmarkEvents(b)
	cfg := DefaultConfig()
	cfg.OnEvent = func(phase.Event) {}
	d := NewDetector(cfg)
	const chunkLen = 8192
	var chunks []*trace.Columns
	for off := 0; off+chunkLen <= len(events); off += chunkLen {
		data, err := trace.AppendChunkV2(nil, events[off:off+chunkLen])
		if err != nil {
			b.Fatal(err)
		}
		var c trace.Columns
		if err := trace.DecodeChunkV2(data, &c, 0); err != nil {
			b.Fatal(err)
		}
		chunks = append(chunks, &c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.AccessColumns(chunks[i%len(chunks)])
	}
	b.ReportMetric(float64(b.N)*chunkLen/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkAccessPerEvent is the baseline the server used before this
// PR: one exported-method call per decoded event.
func BenchmarkAccessPerEvent(b *testing.B) {
	events := benchmarkEvents(b)
	cfg := DefaultConfig()
	cfg.OnEvent = func(phase.Event) {}
	d := NewDetector(cfg)
	const chunkLen = 8192
	b.ReportAllocs()
	b.ResetTimer()
	off := 0
	for i := 0; i < b.N; i++ {
		if off+chunkLen > len(events) {
			off = 0
		}
		for _, ev := range events[off : off+chunkLen] {
			if ev.Kind == trace.EventBlock {
				d.Block(ev.Block, ev.Instrs)
			} else {
				d.Access(ev.Addr)
			}
		}
		off += chunkLen
	}
	b.ReportMetric(float64(b.N)*chunkLen/b.Elapsed().Seconds(), "events/s")
}

// trainEvents records a kernel's Train run as the detector's event
// stream: the input stream-columnar serves its sessions.
func trainEvents(tb testing.TB, name string) []trace.Event {
	tb.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	rec := trace.NewRecorder(1<<21, 1<<16)
	spec.Make(spec.Train).Run(rec)
	return recordedEvents(&rec.T)
}

// BenchmarkDetectorTrain streams whole tomcatv, swim and applu Train
// traces through fresh default detectors as decoded 4096-event v2
// chunks, the shape stream-columnar sends, and reports ns per event.
// Unlike BenchmarkAccessColumns it covers a full session at Train
// scale, so the datum table fills and slots are claimed from stale
// datums, and the analyzer evicts.
func BenchmarkDetectorTrain(b *testing.B) {
	for _, name := range []string{"tomcatv", "swim", "applu"} {
		b.Run(name, func(b *testing.B) {
			events := trainEvents(b, name)
			const chunkLen = 4096
			var chunks []*trace.Columns
			for off := 0; off < len(events); off += chunkLen {
				data, err := trace.AppendChunkV2(nil, events[off:min(off+chunkLen, len(events))])
				if err != nil {
					b.Fatal(err)
				}
				c := new(trace.Columns)
				if err := trace.DecodeChunkV2(data, c, 0); err != nil {
					b.Fatal(err)
				}
				chunks = append(chunks, c)
			}
			cfg := DefaultConfig()
			cfg.OnEvent = func(phase.Event) {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := NewDetector(cfg)
				for _, c := range chunks {
					d.AccessColumns(c)
				}
				d.Flush()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
		})
	}
}
