package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"lpp/internal/core"
	"lpp/internal/marker"
	"lpp/internal/online"
	"lpp/internal/phasedet"
	"lpp/internal/predictor"
	"lpp/internal/regexphase"
	"lpp/internal/reuse"
	"lpp/internal/sampling"
	"lpp/internal/sequitur"
	"lpp/internal/trace"
	"lpp/internal/workload"
)

// offlineProgram is one kernel of the offline workload: detection on
// its Train input, prediction on its Ref input.
type offlineProgram struct {
	spec                   workload.Spec
	train, ref             workload.Params
	trainEvents, refEvents int64
	det                    *core.Detection // the first pass's detection
	marks                  []int64
	accuracy, coverage     float64
	detectTimes, predTimes []time.Duration
}

// offlinePrograms sizes the workload: the paper's Train and Ref inputs,
// whose addresses the seed moves.
func offlinePrograms(tiny bool) ([]*offlineProgram, error) {
	var progs []*offlineProgram
	for _, name := range []string{"tomcatv", "swim", "fft", "mesh"} {
		spec, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		p := &offlineProgram{spec: spec, train: spec.Train, ref: spec.Ref}
		if tiny {
			p.train.N, p.train.Steps = p.train.N/4, 3
			p.ref.N, p.ref.Steps = p.ref.N/4, 4
		}
		progs = append(progs, p)
	}
	return progs, nil
}

// countEvents runs a kernel to count the events it emits.
func countEvents(spec workload.Spec, p workload.Params, off trace.Addr) int64 {
	var c trace.Counter
	shiftRunner(spec.Make(p), off).Run(&c)
	return int64(c.Accesses + c.Blocks)
}

// runOffline runs core.Detect on Train and core.PredictAll (strict) on
// Ref for each kernel, in whole passes until the time is up. Every
// pass must reproduce the first; the first must equal the stages of
// Detect run one by one.
func runOffline(o options) (*outcome, error) {
	out := newOutcome()
	off := addrOffset(o.seed)

	// Set-up: size the inputs and count their events. Repeated so its
	// median is steady.
	var progs []*offlineProgram
	var setups []float64
	for r := 0; r < setupRuns; r++ {
		progs = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if progs, err = offlinePrograms(o.tiny); err != nil {
			return nil, err
		}
		for _, p := range progs {
			p.trainEvents = countEvents(p.spec, p.train, off)
			p.refEvents = countEvents(p.spec, p.ref, off)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	names := make([]string, len(progs))
	for i, p := range progs {
		names[i] = p.spec.Name
	}
	out.facts["programs"] = names
	out.facts["policy"] = "strict"

	// Each pass's throughput and op percentiles; the metrics are their
	// medians over passes, so host noise inside one pass does not move
	// them.
	cfg := core.DefaultConfig()
	var rates, p50s, p90s []float64
	passes := 0
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for passes == 0 || time.Now().Before(deadline) {
		var ops []time.Duration
		var events int64
		var busy time.Duration
		for _, p := range progs {
			prog := p.spec.Make(p.train)
			t0 := time.Now()
			det, err := core.Detect(shiftRunner(prog, off), cfg)
			t1 := time.Now()
			out.attempted++
			if err != nil {
				out.failed++
				fmt.Fprintf(os.Stderr, "failed: %s detect: %v\n", p.spec.Name, err)
				continue
			}
			reps := core.PredictAll(shiftRunner(p.spec.Make(p.ref), off), det, predictor.Strict)
			t2 := time.Now()
			out.attempted++
			ops = append(ops, t2.Sub(t0))
			busy += t2.Sub(t0)
			events += p.trainEvents + p.refEvents
			p.detectTimes = append(p.detectTimes, t1.Sub(t0))
			p.predTimes = append(p.predTimes, t2.Sub(t1))
			if p.det == nil {
				p.det, p.marks = det, prog.ManualMarks()
				p.accuracy, p.coverage = reps[0].Accuracy, reps[0].Coverage
				continue
			}
			if !sameDetection(p.det, det) || reps[0].Accuracy != p.accuracy || reps[0].Coverage != p.coverage {
				out.mismatch("%s pass %d: detection or prediction differs from pass 1", p.spec.Name, passes+1)
			}
		}
		rates = append(rates, ratio(float64(events), busy.Seconds()))
		opMs := make([]float64, len(ops))
		for i, d := range ops {
			opMs[i] = float64(d.Nanoseconds()) / 1e6
		}
		p50s = append(p50s, median(opMs))
		p90s = append(p90s, percentileMs(ops, 0.90))
		passes++
	}
	out.facts["passes"] = passes

	// The correctness gate: the stages Detect composes, run one by one
	// on the recorded Train trace, must give the same detection.
	st := &stageTimes{}
	for _, p := range progs {
		if p.det == nil {
			continue
		}
		det, err := detectByStages(p, off, st)
		if err != nil {
			return nil, err
		}
		if o.corrupt && len(det.Boundaries) > 0 {
			det.Boundaries[0]++
		}
		if !reflect.DeepEqual(det.Boundaries, p.det.Boundaries) || !reflect.DeepEqual(det.PhaseSeq, p.det.PhaseSeq) ||
			det.Hierarchy.String() != p.det.Hierarchy.String() {
			out.mismatch("%s: core.Detect differs from its stages run one by one", p.spec.Name)
		}
	}

	if !o.trace {
		matched, total := 0, 0
		for _, p := range progs {
			if p.det != nil {
				m := recall(p.marks, p.det.Boundaries, p.det.Accesses)
				matched += m
				total += len(p.marks)
			}
		}
		out.metrics["setup_s"] = median(setups)
		out.metrics["events_per_s"] = median(rates)
		out.metrics["op_p50_ms"] = median(p50s)
		out.metrics["op_p90_ms"] = median(p90s)
		out.metrics["boundary_recall"] = ratio(float64(matched), float64(total))
		out.metrics["peak_rss_mb"] = peakRSSMB()
		return out, nil
	}

	// Traced: the per-pass stage times, Ref generation alone, and the
	// two reuse analyzers alone on the Train accesses.
	m := out.metrics
	var detectS, predictS, refGen float64
	var accuracy, coverage float64
	approx := time.Duration(0)
	exact := time.Duration(0)
	accesses := 0
	for _, p := range progs {
		detectS += medianDur(p.detectTimes)
		predictS += medianDur(p.predTimes)
		t0 := time.Now()
		shiftRunner(p.spec.Make(p.ref), off).Run(trace.Null{})
		refGen += time.Since(t0).Seconds()
		accuracy += p.accuracy / float64(len(progs))
		coverage += p.coverage / float64(len(progs))
		a, e, n := analyzersAlone(st.recorded[p.spec.Name])
		approx, exact, accesses = approx+a, exact+e, accesses+n
	}
	stages := st.generate + st.sampling + st.filter + st.partition + st.markers + st.grammar
	m["workload.train_generate_s"] = st.generate.Seconds()
	m["sampling.run_s"] = st.sampling.Seconds()
	m["core.filter_s"] = st.filter.Seconds()
	m["phasedet.partition_s"] = st.partition.Seconds()
	m["marker.select_s"] = st.markers.Seconds()
	m["sequitur.build_s"] = st.grammar.Seconds()
	m["core.detect_s"] = detectS
	m["core.residual_s"] = detectS - stages.Seconds()
	m["trace.overhead_ratio"] = ratio(stages.Seconds(), detectS) - 1
	m["workload.ref_generate_s"] = refGen
	m["core.predict_s"] = predictS
	m["predictor.overhead_s"] = predictS - refGen
	m["predictor.accuracy"] = accuracy
	m["predictor.coverage"] = coverage
	m["reuse.approx_ns_per_access"] = ratio(float64(approx.Nanoseconds()), float64(accesses))
	m["reuse.exact_ns_per_access"] = ratio(float64(exact.Nanoseconds()), float64(accesses))
	fmt.Fprintf(os.Stderr, "per pass (s): untraced detect %.3f = stages run one by one %.3f + residual %.3f (Detect overlaps generation with the exact analyzer on %d workers)\n",
		detectS, stages.Seconds(), detectS-stages.Seconds(), runtime.GOMAXPROCS(0))
	return out, nil
}

// stageTimes sums the decomposed pipeline's stage times over programs.
type stageTimes struct {
	generate, sampling, filter, partition, markers, grammar time.Duration
	recorded                                                map[string]*trace.Recorded
}

// detectByStages runs the stages core.Detect composes, one at a time,
// configured as Detect normalizes them, and times each.
func detectByStages(p *offlineProgram, off trace.Addr, st *stageTimes) (*core.Detection, error) {
	cfg := p.det.Config // Detect's configuration after normalization
	t0 := time.Now()
	rec := trace.NewRecorder(1<<20, 1<<16)
	shiftRunner(p.spec.Make(p.train), off).Run(rec)
	t1 := time.Now()
	scfg := cfg.Sampling
	scfg.ExpectedLength = int64(len(rec.T.Accesses))
	scfg.CheckEvery = max(scfg.ExpectedLength/50, 2000)
	res := sampling.RunTrace(rec.T.Accesses, scfg)
	t2 := time.Now()
	var filtered []int
	if cfg.KeepIrregular {
		filtered = core.FilterSamplesIrregular(res, cfg.Wavelet, cfg.MinSubTrace)
	} else {
		filtered = core.FilterSamples(res, cfg.Wavelet, cfg.MinSubTrace)
	}
	t3 := time.Now()
	ids := make([]int, len(filtered))
	for i, si := range filtered {
		ids[i] = res.Samples[si].Data
	}
	cuts := phasedet.Partition(ids, phasedet.Config{Alpha: cfg.Alpha, MaxSpan: cfg.MaxSpan})
	boundaries := make([]int64, len(cuts))
	for i, c := range cuts {
		boundaries[i] = res.Samples[filtered[c]].Time
	}
	t4 := time.Now()
	sel, err := marker.SelectBest(&rec.T, boundaries, cfg.Marker)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.spec.Name, err)
	}
	t5 := time.Now()
	seq := sel.PhaseSequence()
	hier := regexphase.FromGrammar(sequitur.Build(seq))
	t6 := time.Now()

	st.generate += t1.Sub(t0)
	st.sampling += t2.Sub(t1)
	st.filter += t3.Sub(t2)
	st.partition += t4.Sub(t3)
	st.markers += t5.Sub(t4)
	st.grammar += t6.Sub(t5)
	if st.recorded == nil {
		st.recorded = make(map[string]*trace.Recorded)
	}
	st.recorded[p.spec.Name] = &rec.T
	return &core.Detection{Boundaries: boundaries, PhaseSeq: seq, Hierarchy: hier}, nil
}

// sameDetection compares the parts of a detection later passes must
// reproduce exactly.
func sameDetection(a, b *core.Detection) bool {
	return reflect.DeepEqual(a.Boundaries, b.Boundaries) && reflect.DeepEqual(a.PhaseSeq, b.PhaseSeq) &&
		a.Hierarchy.String() == b.Hierarchy.String() && a.Accesses == b.Accesses
}

// analyzersAlone times the streaming and the exact reuse analyzers over
// a recorded trace's accesses.
func analyzersAlone(rec *trace.Recorded) (approx, exact time.Duration, n int) {
	if rec == nil {
		return 0, 0, 0
	}
	a := reuse.NewApproxAnalyzer(online.DefaultConfig().Epsilon)
	maxLive := online.DefaultConfig().MaxLive
	t0 := time.Now()
	for _, addr := range rec.Accesses {
		a.AccessEvict(addr, maxLive)
	}
	t1 := time.Now()
	e := reuse.NewAnalyzer()
	for _, addr := range rec.Accesses {
		e.Access(addr)
	}
	return t1.Sub(t0), time.Since(t1), len(rec.Accesses)
}

func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}
