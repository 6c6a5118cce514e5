// Command lppbench regenerates the tables and figures of the paper's
// evaluation section, and writes the BENCH_* artifacts for the
// warm-start and hostile-torture runs. Throughput of the stream,
// ingest, routed-cluster and offline paths is measured by the
// repository benchmark (bash perfbench/run.sh).
//
// Usage:
//
//	lppbench                    # run everything at full size
//	lppbench -exp table2,fig6   # run selected experiments
//	lppbench -quick             # shrunken inputs (seconds, not minutes)
//	lppbench -out results/      # also write CSV artifacts
//	lppbench -html report.html -out results/  # self-contained HTML report
//	lppbench -list              # list experiments
//	lppbench -warmstart         # knowledge-store warm-start benchmark, write BENCH_warmstart.json
//	lppbench -hostile [-family drift]     # differential torture harness, write BENCH_hostile.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"lpp/internal/experiments"
	"lpp/internal/profiling"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "lppbench:", err)
		os.Exit(1)
	}
}

// run is main minus the process exit, so tests can drive every mode
// in-process. Reports go to stdout; timing goes to stderr.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("lppbench", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "", "comma-separated experiment names (default all)")
		quick   = fs.Bool("quick", false, "shrink inputs for a fast run")
		out     = fs.String("out", "", "directory for CSV/SVG artifacts")
		list    = fs.Bool("list", false, "list experiments and exit")
		html    = fs.String("html", "", "write a self-contained HTML report to this file (needs -out)")
		warm    = fs.Bool("warmstart", false, "benchmark knowledge-store warm starts on the golden workloads (writes BENCH_warmstart.json)")
		cpuProf = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf = fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
		hostile = fs.Bool("hostile", false, "run the differential torture harness over the hostile families (writes BENCH_hostile.json)")
		family  = fs.String("family", "", "restrict -hostile to one family: interleaved, drift, or adaptive")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProf()

	switch {
	case *warm:
		return runWarmstartBench(stdout, *out)
	case *hostile && *list:
		listHostile(stdout)
		return nil
	case *hostile:
		return runHostile(stdout, *out, *family)
	case *list:
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", e.Name, e.Title)
		}
		for _, e := range experiments.Extensions() {
			fmt.Fprintf(stdout, "%-12s %s\n", e.Name, e.Title)
		}
		return nil
	}

	var exps []experiments.Experiment
	if *exp == "" {
		exps = experiments.All()
	} else {
		for _, name := range strings.Split(*exp, ",") {
			e, err := experiments.ByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			exps = append(exps, e)
		}
	}

	opts := experiments.Options{
		Quick:  *quick,
		OutDir: *out,
		Cache:  experiments.NewCache(),
	}

	if *html != "" {
		if *out == "" {
			return fmt.Errorf("-html needs -out for the figure artifacts")
		}
		f, err := os.Create(*html)
		if err != nil {
			return err
		}
		err = experiments.HTMLReport(f, exps, opts)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "report written to %s\n", *html)
		return nil
	}

	// The report itself is deterministic and ordered; timing goes to
	// stderr so stdout is byte-identical at every GOMAXPROCS.
	start := time.Now()
	if err := experiments.RunReport(stdout, exps, opts); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "lppbench: %d experiments in %v (GOMAXPROCS %d)\n",
		len(exps), time.Since(start).Round(time.Millisecond), runtime.GOMAXPROCS(0))
	return nil
}
