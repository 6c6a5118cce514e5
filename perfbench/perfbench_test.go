package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks
// the benchmark's output against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSmokeMetrics runs every workload at tiny sizes, untraced and
// traced, and requires exactly the metrics BENCHMARK.json names, each
// with its unit, and a passing correctness gate.
func TestSmokeMetrics(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			line, err := run(options{workload: w.Name, seed: 7, seconds: 0.5, trace: traced, tiny: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			var res struct {
				Correct   bool  `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatalf("%s trace=%v: result line %q: %v", w.Name, traced, line, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, name)
					continue
				}
				if got.Unit != unit {
					t.Errorf("%s trace=%v: %s unit %q, BENCHMARK.json says %q", w.Name, traced, name, got.Unit, unit)
				}
				if !traced && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, name)
				}
			}
		}
	}
}

// TestInjectedMismatchTripsGate corrupts one reference output per
// workload and requires the run to fail without a result.
func TestInjectedMismatchTripsGate(t *testing.T) {
	for name := range workloads {
		line, err := run(options{workload: name, seed: 7, seconds: 0.5, tiny: true, corrupt: true})
		if err == nil || !strings.Contains(err.Error(), "differ") {
			t.Errorf("%s: corrupted reference gave result %q, err %v", name, line, err)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v, want [2.75 5.5 8.25]", got)
	}
}
