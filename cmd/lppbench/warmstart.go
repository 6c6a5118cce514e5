package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lpp/internal/knowledge"
	"lpp/internal/warmstart"
)

// warmstartRow is one golden workload's warm-vs-cold comparison against
// the shared fleet store.
type warmstartRow struct {
	Name       string `json:"name"`
	Events     int64  `json:"events"`
	Boundaries int64  `json:"boundaries"`

	ColdFirstBoundary int64 `json:"cold_first_boundary"`
	ColdFirstEvent    int64 `json:"cold_first_event"`
	ColdFirstTime     int64 `json:"cold_first_time"`
	WarmFirstBoundary int64 `json:"warm_first_boundary"`
	WarmFirstEvent    int64 `json:"warm_first_event"`
	WarmFirstTime     int64 `json:"warm_first_time"`

	ColdPredictions int64   `json:"cold_predictions"`
	WarmPredictions int64   `json:"warm_predictions"`
	ColdAccuracy    float64 `json:"cold_accuracy"`
	WarmAccuracy    float64 `json:"warm_accuracy"`
	ColdCoverage    float64 `json:"cold_coverage"`
	WarmCoverage    float64 `json:"warm_coverage"`

	WarmStarted bool    `json:"warm_started"`
	MatchScore  float64 `json:"match_score"`
	Earlier     bool    `json:"earlier"`
}

// warmstartReport is the BENCH_warmstart.json schema: one shared store
// trained on every golden workload, then each workload replayed warm
// (against the store) and cold.
type warmstartReport struct {
	GOMAXPROCS    int            `json:"gomaxprocs"`
	NumCPU        int            `json:"num_cpu"`
	Workloads     []warmstartRow `json:"workloads"`
	StorePrograms int            `json:"store_programs"`
	StoreBytes    int64          `json:"store_bytes"`
	EarlierCount  int            `json:"earlier_count"`
	Seconds       float64        `json:"seconds"`
}

// runWarmstartBench measures the cross-session knowledge store on the
// nine golden workloads: train one store on a run of each, then replay
// each workload twice — once against the populated store (warm) and
// once without (cold) — and report first-prediction latency and the
// accuracy/coverage lift. One shared store, not one per workload, so
// the numbers also cover fingerprint discrimination.
func runWarmstartBench(stdout io.Writer, outDir string) error {
	start := time.Now()
	store := knowledge.NewStore(knowledge.Config{})
	cases := warmstart.Cases()
	for _, c := range cases {
		events, err := c.Events()
		if err != nil {
			return err
		}
		warmstart.Run(events, warmstart.Config{Detector: c.Detector()}, store, true)
	}
	storeBytes := int64(len(store.Snapshot()))

	rep := warmstartReport{
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		StorePrograms: store.Len(),
		StoreBytes:    storeBytes,
	}
	for _, c := range cases {
		events, err := c.Events()
		if err != nil {
			return err
		}
		cfg := warmstart.Config{Detector: c.Detector()}
		cold := warmstart.Run(events, cfg, nil, false)
		warm := warmstart.Run(events, cfg, store, false)
		row := warmstartRow{
			Name:              c.Name,
			Events:            cold.Events,
			Boundaries:        cold.Boundaries,
			ColdFirstBoundary: cold.FirstPredictionBoundary,
			ColdFirstEvent:    cold.FirstPredictionEvent,
			ColdFirstTime:     cold.FirstPredictionTime,
			WarmFirstBoundary: warm.FirstPredictionBoundary,
			WarmFirstEvent:    warm.FirstPredictionEvent,
			WarmFirstTime:     warm.FirstPredictionTime,
			ColdPredictions:   cold.Predictions,
			WarmPredictions:   warm.Predictions,
			ColdAccuracy:      cold.Accuracy,
			WarmAccuracy:      warm.Accuracy,
			ColdCoverage:      cold.Coverage,
			WarmCoverage:      warm.Coverage,
			WarmStarted:       warm.WarmStarted,
			MatchScore:        warm.MatchScore,
			Earlier: warm.FirstPredictionBoundary >= 0 &&
				(cold.FirstPredictionBoundary < 0 ||
					warm.FirstPredictionBoundary < cold.FirstPredictionBoundary),
		}
		if row.Earlier {
			rep.EarlierCount++
		}
		rep.Workloads = append(rep.Workloads, row)
	}
	rep.Seconds = time.Since(start).Seconds()

	fmt.Fprintf(stdout, "knowledge store: %d programs, %d bytes\n", rep.StorePrograms, rep.StoreBytes)
	fmt.Fprintf(stdout, "%-10s %8s %8s %10s %10s %9s %9s\n",
		"workload", "coldfp", "warmfp", "coldtime", "warmtime", "coldacc", "warmacc")
	for _, r := range rep.Workloads {
		fmt.Fprintf(stdout, "%-10s %8d %8d %10d %10d %9.3f %9.3f\n",
			r.Name, r.ColdFirstBoundary, r.WarmFirstBoundary,
			r.ColdFirstTime, r.WarmFirstTime, r.ColdAccuracy, r.WarmAccuracy)
	}
	fmt.Fprintf(stdout, "warm first prediction strictly earlier on %d/%d workloads\n",
		rep.EarlierCount, len(rep.Workloads))

	out := "BENCH_warmstart.json"
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
	fmt.Fprintf(stdout, "report written to %s\n", out)
	return nil
}
