package core

import (
	"fmt"
	"reflect"
	"testing"

	"lpp/internal/marker"
	"lpp/internal/phase"
	"lpp/internal/predictor"
	"lpp/internal/regexphase"
	"lpp/internal/stats"
	"lpp/internal/trace"
	"lpp/internal/workload"
)

// eventLog is a phase.Consumer that records the events it is fed.
type eventLog struct{ events []phase.Event }

func (l *eventLog) Name() string                 { return "log" }
func (l *eventLog) Consume(ev phase.Event) error { l.events = append(l.events, ev); return nil }
func (l *eventLog) Snapshot() []byte             { return nil }
func (l *eventLog) Restore([]byte) error         { return nil }

// checkPredictParity runs prog through PredictAllWith and
// PredictStatistical and through their frozen sequential references,
// requiring deep-equal reports and identical sink event sequences. It
// returns the reference's strict report and events so callers can check
// the comparison was not vacuous.
func checkPredictParity(t *testing.T, prog trace.Runner, det *Detection) (*RunReport, []phase.Event) {
	t.Helper()
	var want, got eventLog
	policies := []predictor.Policy{predictor.Strict, predictor.Relaxed}
	wantReps := refPredictAllWith(prog, det, &want, policies...)
	gotReps := PredictAllWith(prog, det, &got, policies...)
	for i := range policies {
		if !reflect.DeepEqual(gotReps[i], wantReps[i]) {
			t.Errorf("policy %v: pipelined report diverges from the sequential reference:\ngot  %+v\nwant %+v",
				policies[i], *gotReps[i], *wantReps[i])
		}
	}
	if !reflect.DeepEqual(got.events, want.events) {
		t.Errorf("pipelined sink saw %d events, sequential reference %d, or their contents differ",
			len(got.events), len(want.events))
	}
	if gotStat, wantStat := PredictStatistical(prog, det), refPredictStatistical(prog, det); !reflect.DeepEqual(gotStat, wantStat) {
		t.Errorf("pipelined statistical report diverges from the sequential reference:\ngot  %+v\nwant %+v",
			*gotStat, *wantStat)
	}
	return wantReps[0], want.events
}

// TestPredictPipelineMatchesSequentialKernels: for the offline
// benchmark's four kernels, detection on Train and the pipelined marked
// run on Ref reproduce the sequential marker.Instrumented run exactly.
// Under -race or -short the inputs shrink to the parity suite's scale.
func TestPredictPipelineMatchesSequentialKernels(t *testing.T) {
	for _, name := range []string{"tomcatv", "swim", "fft", "mesh"} {
		t.Run(name, func(t *testing.T) {
			spec, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			train, ref := spec.Train, spec.Ref
			if raceEnabled || testing.Short() {
				train = quickTrain(spec)
				ref = train
				ref.Steps += 2
				ref.Seed = spec.Ref.Seed
			}
			det, err := Detect(spec.Make(train), DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			rep, events := checkPredictParity(t, spec.Make(ref), det)
			if rep.Predictions == 0 || len(events) == 0 {
				t.Fatalf("%d predictions, %d events: the parity check is vacuous", rep.Predictions, len(events))
			}
		})
	}
}

// script is a synthetic program: a fixed sequence of block executions
// and accesses.
type script []scriptEvent

type scriptEvent struct {
	block  trace.BlockID // 0: an access
	instrs int
	addr   trace.Addr
}

func (s script) Run(ins trace.Instrumenter) {
	for _, e := range s {
		if e.block == 0 {
			ins.Access(e.addr)
		} else {
			ins.Block(e.block, e.instrs)
		}
	}
}

// Synthetic block IDs: markerA and markerB begin phases 0 and 1;
// plainBlock is unmarked.
const (
	markerA    trace.BlockID = 10
	markerB    trace.BlockID = 20
	plainBlock trace.BlockID = 3
)

// synthProg appends to a script, drawing addresses from a working
// set a few times the simulated cache so executions see hits and misses.
type synthProg struct {
	s   script
	rng *stats.RNG
}

func (b *synthProg) block(id trace.BlockID, instrs int) *synthProg {
	b.s = append(b.s, scriptEvent{block: id, instrs: instrs})
	return b
}

// accesses appends n accesses, with an unmarked block every 97th.
func (b *synthProg) accesses(n int) *synthProg {
	for i := 0; i < n; i++ {
		if i%97 == 96 {
			b.block(plainBlock, 5)
		}
		b.s = append(b.s, scriptEvent{addr: trace.Addr(b.rng.Intn(1<<16)) << 5})
	}
	return b
}

// syntheticScripts places marker firings at the batch edges of the
// pipelined run: first event of the run and of a batch, right after a
// full batch is flushed, last event of the run, a run without accesses,
// and more firings than one batch carries.
func syntheticScripts() map[string]script {
	build := func(f func(b *synthProg)) script {
		b := &synthProg{rng: stats.NewRNG(23)}
		f(b)
		return b.s
	}
	return map[string]script{
		"empty": nil,
		"first-of-run": build(func(b *synthProg) {
			b.block(markerA, 4).accesses(2*distBatch+17).block(markerB, 4).accesses(distBatch / 2)
		}),
		"after-full-batch": build(func(b *synthProg) {
			b.s = append(b.s, scriptEvent{addr: 64})
			for i := 0; i < 4; i++ {
				// Exactly distBatch accesses since the last flush, so the
				// firing opens the next batch; the unmarked blocks inside
				// accesses do not count toward the batch.
				n := distBatch - 1
				if i > 0 {
					n = distBatch
				}
				for k := 0; k < n; k++ {
					b.s = append(b.s, scriptEvent{addr: trace.Addr(b.rng.Intn(1<<15)) << 6})
				}
				b.block([]trace.BlockID{markerA, markerB}[i%2], 9)
			}
			b.accesses(300)
		}),
		"last-event": build(func(b *synthProg) {
			b.accesses(distBatch+distBatch/2).block(markerA, 3).accesses(100).block(markerB, 3)
		}),
		"no-accesses": build(func(b *synthProg) {
			for i := 0; i < 50; i++ {
				b.block(markerA, 11).block(plainBlock, 2).block(markerB, 7)
			}
		}),
		"marks-overflow": build(func(b *synthProg) {
			b.accesses(1000)
			for i := 0; i < 3*batchMarks+5; i++ {
				b.block([]trace.BlockID{markerA, markerB}[i%2], 2+i%3)
				if i%200 == 0 {
					b.accesses(i % 7)
				}
			}
			b.accesses(distBatch + 1)
		}),
		"no-markers": build(func(b *synthProg) { b.accesses(3 * distBatch) }),
	}
}

// TestPredictPipelineMatchesSequentialSynthetic checks pipeline parity
// where batching could go wrong: marker firings at every batch edge,
// under a detection whose phases are all consistent and one that flags
// phase 1 inconsistent.
func TestPredictPipelineMatchesSequentialSynthetic(t *testing.T) {
	sel := marker.Selection{Markers: map[trace.BlockID]marker.PhaseID{markerA: 0, markerB: 1}, PhaseCount: 2}
	hier := regexphase.BuildHierarchy([]int{0, 1, 0, 1, 0, 1})
	dets := map[string]*Detection{
		"consistent":   {Selection: sel, Hierarchy: hier, PhaseConsistent: map[marker.PhaseID]bool{0: true, 1: true}},
		"inconsistent": {Selection: sel, Hierarchy: hier, PhaseConsistent: map[marker.PhaseID]bool{0: true, 1: false}},
	}
	for name, s := range syntheticScripts() {
		for dname, det := range dets {
			t.Run(fmt.Sprintf("%s/%s", name, dname), func(t *testing.T) {
				checkPredictParity(t, s, det)
			})
		}
	}
}

// panicSink panics on its first event.
type panicSink struct{ eventLog }

func (panicSink) Consume(phase.Event) error { panic("sink failure") }

// TestPredictSinkPanicReachesCaller: a panic in the per-marker work,
// which runs on the pipeline's simulator goroutine, resurfaces on the
// caller's goroutine as it would in a sequential run.
func TestPredictSinkPanicReachesCaller(t *testing.T) {
	s := syntheticScripts()["after-full-batch"]
	det := &Detection{
		Selection: marker.Selection{Markers: map[trace.BlockID]marker.PhaseID{markerA: 0, markerB: 1}},
		Hierarchy: regexphase.BuildHierarchy([]int{0, 1, 0, 1}),
	}
	defer func() {
		if r := recover(); r != "sink failure" {
			t.Fatalf("recovered %v, want the sink's panic", r)
		}
	}()
	PredictAllWith(s, det, &panicSink{}, predictor.Strict)
	t.Fatal("PredictAllWith returned despite a panicking sink")
}

// TestPredictAllAllocsPerRefAccess bounds PredictAll's allocations per
// Ref access on tomcatv (about 51M accesses). The pipeline recycles its
// batch buffers, so the run's allocations are the predictor's
// per-execution bookkeeping (about 2.5K, 5e-5 per access, as in the
// sequential run) and a handful of batches. Without recycling every 8K
// accesses would allocate a fresh batch, adding about 1.2e-4 per
// access, which the bound rejects.
func TestPredictAllAllocsPerRefAccess(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("full tomcatv Ref run; AllocsPerRun counts race-runtime allocations")
	}
	spec, err := workload.ByName("tomcatv")
	if err != nil {
		t.Fatal(err)
	}
	det, err := Detect(spec.Make(spec.Train), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prog := spec.Make(spec.Ref)
	var accesses int64
	allocs := testing.AllocsPerRun(1, func() {
		accesses = PredictAll(prog, det, predictor.Strict)[0].Accesses
	})
	perAccess := allocs / float64(accesses)
	t.Logf("%.0f allocations over %d Ref accesses: %.2e per access", allocs, accesses, perAccess)
	if perAccess >= 1e-4 {
		t.Errorf("PredictAll allocates %.2e objects per Ref access, want < 1e-4", perAccess)
	}
}
