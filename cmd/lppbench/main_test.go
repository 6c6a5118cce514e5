package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"lpp/internal/experiments"
)

// runOK drives one lppbench invocation in-process and returns its stdout.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("lppbench %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// readArtifact parses dir/name into v.
func readArtifact(t *testing.T, dir, name string, v any) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

func TestListNamesEveryExperiment(t *testing.T) {
	out := runOK(t, "-list")
	for _, e := range append(experiments.All(), experiments.Extensions()...) {
		if !strings.Contains(out, e.Name+" ") {
			t.Errorf("-list does not name %q:\n%s", e.Name, out)
		}
	}
}

// TestReportIdenticalAcrossJobs: GOMAXPROCS is the only worker count,
// the report is the same at 1 and 2, and the removed -j flag fails
// flag parsing.
func TestReportIdenticalAcrossJobs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	seq := runOK(t, "-exp", "table1", "-quick")
	runtime.GOMAXPROCS(2)
	par := runOK(t, "-exp", "table1", "-quick")
	if seq == "" {
		t.Fatal("empty report")
	}
	if seq != par {
		t.Errorf("GOMAXPROCS 2 report differs from 1:\n--- 1\n%s\n--- 2\n%s", seq, par)
	}
	err := run([]string{"-exp", "table1", "-quick", "-j", "2"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -j") {
		t.Errorf("-j 2: err = %v, want an undefined-flag error", err)
	}
}

func TestHostileArtifact(t *testing.T) {
	dir := t.TempDir()
	runOK(t, "-hostile", "-family", "drift", "-out", dir)
	var rep struct {
		NumCPU   int `json:"num_cpu"`
		Families []struct {
			Family     string `json:"family"`
			HTTPParity bool   `json:"http_parity"`
		} `json:"families"`
	}
	readArtifact(t, dir, "BENCH_hostile.json", &rep)
	if len(rep.Families) != 1 || rep.Families[0].Family != "drift" {
		t.Fatalf("families = %+v, want just drift", rep.Families)
	}
	for _, f := range rep.Families {
		if !f.HTTPParity {
			t.Errorf("%s: http_parity false", f.Family)
		}
	}
	if rep.NumCPU != runtime.NumCPU() {
		t.Errorf("num_cpu = %d, want %d", rep.NumCPU, runtime.NumCPU())
	}
}

// TestClusterFlagsRejected: the routed-cluster mode is gone (the
// routed chaos suite in internal/cluster checks it, perfbench's
// stream-routed-durable workload measures it), and its flags fail flag
// parsing.
func TestClusterFlagsRejected(t *testing.T) {
	for _, args := range [][]string{{"-cluster"}, {"-events", "40000"}, {"-chunk", "4096"}} {
		err := run(args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Errorf("%s: err = %v, want an undefined-flag error", strings.Join(args, " "), err)
		}
	}
}

func TestWarmstartArtifact(t *testing.T) {
	dir := t.TempDir()
	runOK(t, "-warmstart", "-out", dir)
	var rep struct {
		NumCPU    int `json:"num_cpu"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		StorePrograms int `json:"store_programs"`
	}
	readArtifact(t, dir, "BENCH_warmstart.json", &rep)
	if len(rep.Workloads) == 0 || rep.StorePrograms == 0 {
		t.Errorf("empty warm-start report: %d workloads, %d stored programs", len(rep.Workloads), rep.StorePrograms)
	}
	if rep.NumCPU != runtime.NumCPU() {
		t.Errorf("num_cpu = %d, want %d", rep.NumCPU, runtime.NumCPU())
	}
}
