package main

import (
	"bytes"
	"encoding/json"
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

func TestReportIdenticalAcrossJobs(t *testing.T) {
	seq := runOK(t, "-exp", "table1", "-quick", "-j", "1")
	par := runOK(t, "-exp", "table1", "-quick", "-j", "2")
	if seq == "" {
		t.Fatal("empty report")
	}
	if seq != par {
		t.Errorf("-j 2 report differs from -j 1:\n--- -j 1\n%s\n--- -j 2\n%s", seq, par)
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

func TestClusterArtifact(t *testing.T) {
	dir := t.TempDir()
	runOK(t, "-cluster", "-events", "40000", "-chunk", "4096", "-out", dir)
	var rep struct {
		NumCPU     int    `json:"num_cpu"`
		EventsLost int    `json:"events_lost"`
		Parity     string `json:"parity"`
		Note       string `json:"note"`
	}
	readArtifact(t, dir, "BENCH_cluster.json", &rep)
	if rep.EventsLost != 0 || rep.Parity != "byte-identical" {
		t.Errorf("events_lost = %d, parity = %q; want 0, byte-identical", rep.EventsLost, rep.Parity)
	}
	if rep.NumCPU != runtime.NumCPU() {
		t.Errorf("num_cpu = %d, want %d", rep.NumCPU, runtime.NumCPU())
	}
	if single := strings.Contains(rep.Note, "single-CPU"); single != (runtime.NumCPU() == 1) {
		t.Errorf("note claims single-CPU = %v on a %d-CPU host: %q", single, runtime.NumCPU(), rep.Note)
	}
}

// TestClusterNoteFollowsHost pins both branches of the note, whatever
// host the suite runs on.
func TestClusterNoteFollowsHost(t *testing.T) {
	for _, ncpu := range []int{1, 2, 8} {
		note := clusterNote(ncpu)
		if !strings.Contains(note, "Kill()") {
			t.Errorf("%d CPUs: note drops the node-death method: %q", ncpu, note)
		}
		if single := strings.Contains(note, "single-CPU"); single != (ncpu == 1) {
			t.Errorf("%d CPUs: single-CPU caveat = %v: %q", ncpu, single, note)
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
