package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"lpp/internal/bbv"
	"lpp/internal/workload"
)

// csvArtifacts maps each experiment to the CSV files it must produce.
var csvArtifacts = map[string][]string{
	"fig1":   {"fig1_tomcatv_trace.csv"},
	"fig2":   {"fig2_moldyn_subtrace.csv"},
	"fig3":   {"fig3_tomcatv_phases.csv", "fig3_compress_bbv.csv", "fig3_tomcatv_intervals.csv"},
	"fig4":   {"fig4_compress_power4.csv"},
	"fig5":   {"fig5_gcc_trace.csv", "fig5_vortex_trace.csv"},
	"fig6":   {"fig6_bound00.csv", "fig6_bound05.csv"},
	"table2": {"table2.csv"},
	"table3": {"table3.csv"},
	"table4": {"table4.csv"},
	"table5": {"table5.csv"},
	"table6": {"table6.csv"},
}

func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			dir := t.TempDir()
			var buf bytes.Buffer
			if err := e.Run(Options{W: &buf, Quick: true, OutDir: dir}); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Error("experiment produced no report")
			}
			for _, want := range csvArtifacts[e.Name] {
				if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
					t.Errorf("missing CSV artifact %s", want)
				}
			}
		})
	}
}

func TestByNameAndRegistry(t *testing.T) {
	if len(All()) != 12 {
		t.Errorf("experiments = %d, want 12 (6 tables + 6 figures)", len(All()))
	}
	if len(Extensions()) != 3 {
		t.Errorf("extensions = %d, want 3", len(Extensions()))
	}
	if _, err := ByName("table2"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("xdvfs"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestExtensionsRunQuick(t *testing.T) {
	for _, e := range Extensions() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			dir := t.TempDir()
			var buf bytes.Buffer
			if err := e.Run(Options{W: &buf, Quick: true, OutDir: dir}); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Error("extension produced no report")
			}
			if _, err := os.Stat(filepath.Join(dir, e.Name+".csv")); err != nil {
				t.Errorf("missing %s.csv", e.Name)
			}
		})
	}
}

func TestXPredictorsRLEDominates(t *testing.T) {
	// Sherwood et al.'s finding, pinned: RLE Markov is at least as
	// good as last-value on (nearly) every benchmark; allow one
	// exception for clustering noise.
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := XPredictors(Options{W: &buf, Quick: true, OutDir: dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "xpredictors.csv"))
	if err != nil {
		t.Fatal(err)
	}
	worse := 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n")[1:] {
		f := strings.Split(line, ",")
		lv := atofOrFail(t, f[1])
		rle := atofOrFail(t, f[4])
		if rle < lv-1e-9 {
			worse++
		}
	}
	if worse > 1 {
		t.Errorf("RLE Markov worse than last-value on %d benchmarks", worse)
	}
}

func TestTable2ShapeStrictAccuracy(t *testing.T) {
	// Strict prediction must be (near) perfect on every benchmark,
	// and MolDyn must have the lowest strict coverage (Table 2's
	// defining shape).
	o := Options{Quick: true}
	worstCov, worstName := 2.0, ""
	for _, spec := range workload.Predictable() {
		a, err := o.analyze(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if a.strict.Accuracy < 0.85 {
			t.Errorf("%s: strict accuracy %.3f", spec.Name, a.strict.Accuracy)
		}
		if a.strict.Coverage < worstCov {
			worstCov, worstName = a.strict.Coverage, spec.Name
		}
	}
	if worstName != "moldyn" {
		t.Errorf("lowest strict coverage is %s, want moldyn", worstName)
	}
}

func TestTable4ShapePhaseTighterThanBBV(t *testing.T) {
	// Locality phases must be far tighter than BBV clusters on the
	// regular benchmarks.
	o := Options{Quick: true}
	for _, name := range []string{"tomcatv", "swim", "compress"} {
		spec, _ := workload.ByName(name)
		a, err := o.analyze(spec)
		if err != nil {
			t.Fatal(err)
		}
		phase := a.relaxed.LocalitySpread()
		col := bbv.NewCollectorWithLocality(maxI64(a.relaxed.Instructions/200, 1000), 7)
		spec.Make(a.ref).Run(col)
		ivs := col.Intervals()
		cluster := groupedSpread(ivs, bbv.Cluster(ivs, bbv.DefaultThreshold))
		if phase*100 > cluster {
			t.Errorf("%s: phase spread %.3e not ≪ BBV spread %.3e", name, phase, cluster)
		}
	}
}

func TestTable5ShapePhaseBeatsOriginalAndGlobal(t *testing.T) {
	var buf bytes.Buffer
	dir := t.TempDir()
	if err := Table5(Options{W: &buf, Quick: true, OutDir: dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table5.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 { // header + mesh + swim
		t.Fatalf("table5.csv lines = %d", len(lines))
	}
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		phaseSpeedup := atofOrFail(t, f[4])
		globalSpeedup := atofOrFail(t, f[5])
		if phaseSpeedup <= 0 {
			t.Errorf("%s: phase speedup %.3f, want > 0", f[0], phaseSpeedup)
		}
		if phaseSpeedup < globalSpeedup-1e-9 {
			t.Errorf("%s: phase speedup %.3f below global %.3f", f[0], phaseSpeedup, globalSpeedup)
		}
	}
}

func TestTable6ShapeRecallHigh(t *testing.T) {
	var buf bytes.Buffer
	dir := t.TempDir()
	if err := Table6(Options{W: &buf, Quick: true, OutDir: dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table6.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")[1:]
	moldynPrec := 1.0
	for _, line := range lines {
		f := strings.Split(line, ",")
		predRecall := atofOrFail(t, f[3])
		if f[0] != "fft" && predRecall < 0.9 {
			t.Errorf("%s: prediction-run recall %.3f, want >= 0.9", f[0], predRecall)
		}
		if f[0] == "moldyn" {
			moldynPrec = atofOrFail(t, f[4])
		}
	}
	if moldynPrec > 0.6 {
		t.Errorf("moldyn precision %.3f — auto analysis should be finer than manual", moldynPrec)
	}
}

func TestQuickParamsShrink(t *testing.T) {
	o := Options{Quick: true}
	for _, spec := range workload.All() {
		train, ref := o.params(spec)
		if train.N > spec.Train.N || ref.Steps > spec.Ref.Steps {
			t.Errorf("%s: quick params did not shrink", spec.Name)
		}
	}
	full := Options{}
	train, _ := full.params(workload.All()[0])
	if train != workload.All()[0].Train {
		t.Error("non-quick params must be the spec's own")
	}
}

func atofOrFail(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestHTMLReport(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	exps := []Experiment{mustByName(t, "table1"), mustByName(t, "fig1")}
	if err := HTMLReport(&buf, exps, Options{Quick: true, OutDir: dir}); err != nil {
		t.Fatal(err)
	}
	html := buf.String()
	for _, want := range []string{"<!DOCTYPE html>", "table1", "fig1", "<svg", "</html>"} {
		if !strings.Contains(html, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Without OutDir the report cannot embed figures: refuse.
	if err := HTMLReport(&buf, exps, Options{Quick: true}); err == nil {
		t.Error("HTMLReport without OutDir should fail")
	}
}

func mustByName(t *testing.T, name string) Experiment {
	t.Helper()
	e, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
