package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lpp/internal/torture"
	"lpp/internal/workload"
)

// hostileReport is the BENCH_hostile.json schema: one differential
// torture report per hostile family (see internal/torture.Report for
// the per-family fields), plus run environment. Like every BENCH_*
// artifact the numbers are wall-clock sensitive only in Seconds; the
// parity and recall figures are deterministic.
type hostileReport struct {
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"num_cpu"`
	Families   []*torture.Report `json:"families"`
	Seconds    float64           `json:"seconds"`
}

// runHostile executes the differential torture harness — offline,
// streaming, and HTTP paths over the hostile families — and writes
// BENCH_hostile.json. An empty family runs all three.
func runHostile(stdout io.Writer, outDir, family string) error {
	start := time.Now()
	rep := hostileReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if family == "" {
		reports, err := torture.RunAll(torture.Options{})
		if err != nil {
			return err
		}
		rep.Families = reports
	} else {
		r, err := torture.Run(family, torture.Options{})
		if err != nil {
			return err
		}
		rep.Families = []*torture.Report{r}
	}
	rep.Seconds = time.Since(start).Seconds()

	fmt.Fprintf(stdout, "%-12s %9s %6s %6s %6s %6s %8s %8s %8s\n",
		"family", "accesses", "truth", "off", "on", "http", "offrec", "trec", "tprec")
	for _, r := range rep.Families {
		parity := "OK"
		if !r.HTTPParity {
			parity = "DIVERGED"
		}
		fmt.Fprintf(stdout, "%-12s %9d %6d %6d %6d %6s %8.3f %8.3f %8.3f\n",
			r.Family, r.Accesses, r.TruthBoundaries, r.OfflineBoundaries,
			r.OnlineBoundaries, parity, r.OfflineRecall, r.TruthRecall, r.TruthPrecision)
	}

	out := "BENCH_hostile.json"
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		out = filepath.Join(outDir, out)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", out)
	return nil
}

// listHostile prints the hostile families for -hostile -list style use.
func listHostile(stdout io.Writer) {
	for _, s := range workload.Hostile() {
		fmt.Fprintf(stdout, "%-12s %s\n", s.Name, s.Description)
	}
}
