// Command lpp runs locality phase prediction on one benchmark: it
// detects phases on the training input, prints the markers and the
// phase hierarchy, then predicts the reference run and reports
// accuracy, coverage, and per-phase behavior.
//
// Usage:
//
//	lpp [-bench tomcatv] [-policy strict|relaxed] [-quick] [-v]
//	    [-consumers predictor,cacheresize,dvfs,remap]
//	lpp -warmstart [-bench fft] [-warmstart-train fft] [-knowledge FILE]
//	lpp -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lpp/internal/core"
	"lpp/internal/marker"
	"lpp/internal/phase"
	"lpp/internal/predictor"
	"lpp/internal/profiling"
	"lpp/internal/stats"
	"lpp/internal/workload"
)

func main() {
	var (
		bench    = flag.String("bench", "tomcatv", "benchmark name (see -list)")
		policy   = flag.String("policy", "strict", "prediction policy: strict, relaxed, or statistical")
		quick    = flag.Bool("quick", false, "shrink inputs for a fast run")
		list     = flag.Bool("list", false, "list benchmarks and exit")
		verb     = flag.Bool("v", false, "print per-execution detail")
		saveProf = flag.String("save", "", "write the detection profile to this file")
		loadProf = flag.String("load", "", "skip detection; load a profile written by -save")
		subph    = flag.Bool("subphases", false, "refine detected phases with a smaller threshold")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		cons     = flag.String("consumers", "", "drive run-time consumers from the prediction run's phase events (comma-separated: predictor[:strict|:relaxed], cacheresize, dvfs, remap)")

		warmFlag  = flag.Bool("warmstart", false, "warm-start mode: train a knowledge store on one trace, replay a second, report warm-vs-cold first-prediction latency and accuracy")
		warmTrain = flag.String("warmstart-train", "", "workload to train the store on in -warmstart mode (default: same as -bench)")
		knowPath  = flag.String("knowledge", "", "knowledge store file for -warmstart mode (empty = in-memory)")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	if *list {
		for _, s := range workload.All() {
			fmt.Printf("%-10s %s (%s)\n", s.Name, s.Description, s.Source)
		}
		return
	}

	if *warmFlag {
		if err := runWarmStart(*bench, *warmTrain, *knowPath); err != nil {
			fatal(err)
		}
		return
	}

	spec, err := workload.ByName(*bench)
	if err != nil {
		fatal(err)
	}
	train, ref := spec.Train, spec.Ref
	if *quick {
		train.N /= 2
		if train.Steps > 6 {
			train.Steps = 6
		}
		ref.N /= 2
		if ref.Steps > 10 {
			ref.Steps = 10
		}
	}

	var det *core.Detection
	if *loadProf != "" {
		f, err := os.Open(*loadProf)
		if err != nil {
			fatal(err)
		}
		det, err = core.Load(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded profile %s: %d phases, hierarchy %v\n",
			*loadProf, det.Selection.PhaseCount, det.Hierarchy)
	} else {
		fmt.Printf("detecting phases of %s (N=%d, steps=%d)...\n", spec.Name, train.N, train.Steps)
		det, err = core.Detect(spec.Make(train), core.DefaultConfig())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  training run: %d accesses, %d instructions\n", det.Accesses, det.Instructions)
		fmt.Printf("  %d access samples of %d data samples (%d threshold adjustments)\n",
			len(det.Samples.Samples), len(det.Samples.DataAddrs), det.Samples.Adjustments)
		fmt.Printf("  %d filtered accesses -> %d phase boundaries\n", len(det.Filtered), len(det.Boundaries))
		fmt.Printf("  %d phases, %d executions; markers: %v\n",
			det.Selection.PhaseCount, len(det.Selection.Regions), det.Selection.Markers)
		fmt.Printf("  hierarchy: %v\n", det.Hierarchy)
		if !det.Consistent() {
			fmt.Printf("  note: %v flagged inconsistent; prediction will decline those phases\n",
				det.PhaseConsistent)
		}
	}
	if *saveProf != "" {
		f, err := os.Create(*saveProf)
		if err != nil {
			fatal(err)
		}
		if err := det.Save(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("profile saved to %s\n", *saveProf)
	}

	if *subph {
		if *loadProf != "" {
			fatal(fmt.Errorf("-subphases needs a fresh detection, not -load"))
		}
		subs, err := core.DetectSubPhases(spec.Make(train), det, 8)
		if err != nil {
			fatal(err)
		}
		if len(subs) == 0 {
			fmt.Println("no phase has internal sub-structure at 1/8 threshold")
		}
		for ph, s := range subs {
			fmt.Printf("  phase %d refines into %d sub-phases over %d executions; hierarchy %v\n",
				ph, s.Selection.PhaseCount, len(s.Selection.Regions), s.Hierarchy)
		}
	}

	if *policy == "statistical" {
		prog := spec.Make(ref)
		rep := core.PredictStatistical(prog, det)
		fmt.Printf("\nstatistical prediction of %s (N=%d, steps=%d):\n", spec.Name, ref.N, ref.Steps)
		fmt.Printf("  interval accuracy %.2f%%  coverage %.2f%%  predictions %d\n",
			100*rep.Accuracy, 100*rep.Coverage, rep.Predictions)
		return
	}
	pol := predictor.Strict
	if *policy == "relaxed" {
		pol = predictor.Relaxed
	}
	fmt.Printf("\npredicting %s (N=%d, steps=%d) under the %v policy...\n",
		spec.Name, ref.N, ref.Steps, pol)
	prog := spec.Make(ref)
	var chain *phase.Chain
	if *cons != "" {
		chain, err = phase.ParseChain(*cons)
		if err != nil {
			fatal(err)
		}
		// The offline consistency gate applies to consumers too.
		for _, c := range chain.Consumers() {
			if pc, ok := c.(*phase.PredictorConsumer); ok {
				for ph, consistent := range det.PhaseConsistent {
					if !consistent {
						pc.MarkInconsistent(int(ph))
					}
				}
			}
		}
	}
	var rep *core.RunReport
	if chain != nil {
		// A typed-nil *Chain must not reach the interface-valued sink.
		rep = core.PredictAllWith(prog, det, chain, pol)[0]
	} else {
		rep = core.Predict(prog, det, pol)
	}
	fmt.Printf("  prediction run: %d accesses, %d instructions\n", rep.Accesses, rep.Instructions)
	fmt.Printf("  accuracy %.2f%%  coverage %.2f%%  next-phase accuracy %.2f%%\n",
		100*rep.Accuracy, 100*rep.Coverage, 100*rep.NextPhaseAccuracy)
	fmt.Printf("  locality spread across executions of a phase: %.3e\n", rep.LocalitySpread())

	execs, avg := rep.LeafStats()
	fmt.Printf("  %d phase executions, average %.0f instructions\n", execs, avg)
	if *verb {
		for i, e := range rep.Executions {
			tag := ""
			if e.Partial {
				tag = " (partial)"
			}
			fmt.Printf("    #%-4d phase %-3d %10d instrs  %9d accesses  miss32=%.3f%% miss256=%.3f%%%s\n",
				i, e.Phase, e.Instructions, e.Accesses,
				100*e.Locality.MissAt(1), 100*e.Locality.MissAt(8), tag)
		}
	}

	if chain != nil {
		fmt.Printf("\nrun-time adaptation (phase bus -> %s):\n", *cons)
		for _, line := range strings.Split(strings.TrimRight(chain.Report(), "\n"), "\n") {
			if line != "" {
				fmt.Printf("  %s\n", line)
			}
		}
	}

	// Compare with the programmer's own marking (the prediction run
	// recorded the manual marks; marker times come from re-running
	// with the markers installed).
	var autoTimes []int64
	probe := marker.NewInstrumented(det.Selection.Markers, nil,
		func(_ marker.PhaseID, acc, _ int64) { autoTimes = append(autoTimes, acc) })
	spec.Make(ref).Run(probe)
	rec, prec := stats.RecallPrecision(prog.ManualMarks(), autoTimes, 400)
	fmt.Printf("  vs manual markers: recall %.3f, precision %.3f\n", rec, prec)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lpp:", err)
	os.Exit(1)
}
