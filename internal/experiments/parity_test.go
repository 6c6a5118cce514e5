package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"lpp/internal/workload"
)

// reportBytes runs the full paper report (all tables and figures) at
// GOMAXPROCS procs with a fresh cache, returning the report text and
// every CSV artifact, keyed by file name.
func reportBytes(t *testing.T, procs int) ([]byte, map[string][]byte) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	dir := t.TempDir()
	var buf bytes.Buffer
	o := Options{Quick: true, OutDir: dir, Cache: NewCache()}
	if err := RunReport(&buf, All(), o); err != nil {
		t.Fatal(err)
	}
	artifacts := make(map[string][]byte)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		artifacts[e.Name()] = data
	}
	return buf.Bytes(), artifacts
}

// TestReportParityAcrossJobs: the nine-workload report at GOMAXPROCS 4
// must be byte-identical to GOMAXPROCS 1 — same report text, same
// CSV/SVG artifacts.
// Combined with TestDetectParallelMatchesSequential this pins the
// whole parallel offline pipeline to the sequential semantics. Run
// under -race in CI to double as a data-race check on the shared
// analysis cache.
func TestReportParityAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("full-report parity is not short")
	}
	serial, serialArtifacts := reportBytes(t, 1)
	parallel, parallelArtifacts := reportBytes(t, 4)

	if !bytes.Equal(serial, parallel) {
		t.Errorf("report text differs between GOMAXPROCS 1 and 4:\n-- 1 --\n%s\n-- 4 --\n%s",
			firstDiffContext(serial, parallel), firstDiffContext(parallel, serial))
	}
	var names []string
	for name := range serialArtifacts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !bytes.Equal(serialArtifacts[name], parallelArtifacts[name]) {
			t.Errorf("artifact %s differs between GOMAXPROCS 1 and 4", name)
		}
	}
	if len(parallelArtifacts) != len(serialArtifacts) {
		t.Errorf("artifact count differs: %d at GOMAXPROCS 1, %d at 4",
			len(serialArtifacts), len(parallelArtifacts))
	}
}

// firstDiffContext returns a short window around the first byte where
// a and b differ, so a parity failure is readable.
func firstDiffContext(a, b []byte) []byte {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := i - 120
	if lo < 0 {
		lo = 0
	}
	hi := i + 120
	if hi > len(a) {
		hi = len(a)
	}
	return a[lo:hi]
}

// TestCacheReplaysTrainingOnce: with a cache configured, repeated
// analyses of the same workload return the same memoized object — the
// training trace is replayed once per report run.
func TestCacheReplaysTrainingOnce(t *testing.T) {
	o := Options{Quick: true, Cache: NewCache()}
	spec, err := workload.ByName("moldyn")
	if err != nil {
		t.Fatal(err)
	}
	a1, err := o.analyze(spec)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := o.analyze(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("cache returned distinct analyses for the same workload")
	}
	if a1 == nil || a1.det == nil {
		t.Fatal("cached analysis is empty")
	}
}

// TestPrewarmConcurrentMatchesSequential: a cache prewarmed at
// GOMAXPROCS 4 must hold analyses identical in content to ones computed
// at GOMAXPROCS 1 without a cache.
func TestPrewarmConcurrentMatchesSequential(t *testing.T) {
	specs := workload.Predictable()[:3]
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	warm := Options{Quick: true, Cache: NewCache()}
	if err := warm.Prewarm(specs); err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(1)
	for _, spec := range specs {
		cached, err := warm.analyze(spec)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Options{Quick: true}.analyze(spec)
		if err != nil {
			t.Fatal(err)
		}
		if cached.det.Selection.PhaseCount != fresh.det.Selection.PhaseCount ||
			len(cached.det.Boundaries) != len(fresh.det.Boundaries) ||
			cached.strict.Accuracy != fresh.strict.Accuracy ||
			cached.relaxed.Coverage != fresh.relaxed.Coverage {
			t.Errorf("%s: prewarmed analysis diverges from sequential", spec.Name)
		}
	}
}
