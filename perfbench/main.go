// Command perfbench is the repository benchmark. It runs one named
// workload against the phase-detection service or the offline
// pipeline, with every input generated from --seed before timing,
// checks the outputs against in-process references, and prints one
// JSON result line:
//
//	perfbench --workload stream-columnar --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate traced run carries the per-layer metrics. A
// correctness mismatch exits non-zero without printing a result.
// --repeat N runs the workload N times (seeds seed..seed+N-1) in child
// processes and prints each metric's median, quartiles and spread.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with --trace 0. The workload-specific meaning of each is in
// README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"events_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"boundary_recall", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by every workload
// with --trace 1. A layer the workload bypasses reports 0.
var perLayer = []metricDef{
	// Live pass, measured from the client and the router's transport.
	{"client.untraced_rtt_us", "us"},
	{"client.traced_rtt_us", "us"},
	{"client.rtt_p99_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"cluster.router_self_us_per_chunk", "us"},
	{"cluster.forwards_per_chunk", "count"},
	{"cluster.migrate_ms", "ms"},
	{"cluster.balance_ratio", "ratio"},
	{"server.work_us_per_chunk", "us"},
	{"server.overhead_us_per_chunk", "us"},
	{"server.rejected_chunks", "count"},
	{"server.checkpoints", "count"},
	{"server.replayed_chunks", "count"},
	{"httpx.retries_per_chunk", "count"},
	{"session.close_p50_ms", "ms"},
	{"online.shed_ratio", "ratio"},
	{"online.dropped_events", "count"},
	{"knowledge.hit_ratio", "ratio"},
	// Replay pass through the layers' public functions.
	{"trace.decode_ns_per_event", "ns"},
	{"trace.wire_bytes_per_event", "B"},
	{"online.detect_ns_per_event", "ns"},
	{"online.chunk_detect_p99_ms", "ms"},
	{"online.analyzer_share", "ratio"},
	{"online.boundaries", "count"},
	{"online.snapshot_ms", "ms"},
	{"online.snapshot_bytes", "B"},
	{"reuse.approx_ns_per_access", "ns"},
	{"reuse.exact_ns_per_access", "ns"},
	{"durable.append_us_per_chunk", "us"},
	{"durable.wal_bytes_per_event", "B"},
	{"durable.checkpoint_ms", "ms"},
	{"phase.chain_ns_per_event", "ns"},
	{"phase.events", "count"},
	{"knowledge.contribute_us", "us"},
	{"knowledge.persist_ms", "ms"},
	// Offline pipeline stages, per pass over the workload's programs.
	{"workload.train_generate_s", "s"},
	{"sampling.run_s", "s"},
	{"core.filter_s", "s"},
	{"phasedet.partition_s", "s"},
	{"marker.select_s", "s"},
	{"sequitur.build_s", "s"},
	{"core.detect_s", "s"},
	{"core.residual_s", "s"},
	{"workload.ref_generate_s", "s"},
	{"core.predict_s", "s"},
	{"predictor.overhead_s", "s"},
	{"predictor.accuracy", "ratio"},
	{"predictor.coverage", "ratio"},
}

// setupRuns is how many times a run sets up; setup_s is the median.
const setupRuns = 5

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	// corrupt flips one byte of one reference output before the
	// correctness check; the smoke test uses it to prove the gate trips.
	corrupt bool
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int64
	// metrics holds the values by name; units come from the tables.
	metrics map[string]float64
	// mismatches lists every output that differed from its reference.
	mismatches []string
	// facts describe the run's configuration for the host line.
	facts map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: make(map[string]float64), facts: make(map[string]any)}
}

// mismatch records a correctness failure.
func (o *outcome) mismatch(format string, args ...any) {
	o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*outcome, error){
	"stream-columnar":       func(o options) (*outcome, error) { return runStream(o, columnarSpec(o.tiny)) },
	"stream-routed-durable": func(o options) (*outcome, error) { return runStream(o, routedSpec(o.tiny)) },
	"offline-pipeline":      runOffline,
}

func main() {
	var o options
	var traceFlag, repeat int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per pass")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.IntVar(&repeat, "repeat", 0, "run the workload this many times (seeds seed, seed+1, ...) and print each metric's spread")
	flag.BoolVar(&o.tiny, "tiny", false, "tiny inputs, for smoke checks of the benchmark itself")
	flag.Parse()
	o.trace = traceFlag == 1
	if _, ok := workloads[o.workload]; !ok || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if repeat > 0 {
		if err := runRepeat(o, traceFlag, repeat); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	line, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one workload and returns the result line. The host line
// (host facts and the workload's configuration) goes to stdout first.
func run(o options) (string, error) {
	out, err := workloads[o.workload](o)
	if err != nil {
		return "", err
	}
	if len(out.mismatches) > 0 {
		for _, m := range out.mismatches {
			fmt.Fprintln(os.Stderr, "mismatch:", m)
		}
		return "", fmt.Errorf("%s: %d output(s) differ from the reference", o.workload, len(out.mismatches))
	}
	host := map[string]any{
		"host": map[string]any{
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go_version": runtime.Version(),
		},
		"workload": o.workload,
		"seed":     o.seed,
		"seconds":  o.seconds,
		"trace":    o.trace,
		"config":   out.facts,
	}
	hb, err := json.Marshal(host)
	if err != nil {
		return "", err
	}
	fmt.Println(string(hb))

	defs, table := endToEnd, "end-to-end"
	if o.trace {
		defs, table = perLayer, "per-layer"
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		metrics[d.name] = value{out.metrics[d.name], d.unit}
		known[d.name] = true
	}
	for name := range out.metrics {
		if !known[name] {
			return "", fmt.Errorf("workload reported metric %q outside the %s table", name, table)
		}
	}
	res, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, out.attempted, out.failed, metrics})
	return string(res), err
}

// runRepeat runs the workload n times in child processes, seeds
// o.seed .. o.seed+n-1, and prints each metric's median, quartiles and
// quartile spread over median — the spread a metric's bound must
// exceed.
func runRepeat(o options, traceFlag, n int) error {
	values := make(map[string][]float64)
	units := make(map[string]string)
	for i := 0; i < n; i++ {
		args := []string{"--workload", o.workload, "--seed", fmt.Sprint(o.seed + int64(i)),
			"--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(traceFlag)}
		if o.tiny {
			args = append(args, "--tiny")
		}
		var stdout strings.Builder
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, o.seed+int64(i), err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res struct {
			Metrics map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run %d: result line: %w", i+1, err)
		}
		for name, v := range res.Metrics {
			values[name] = append(values[name], v.Value)
			units[name] = v.Unit
		}
		fmt.Fprintf(os.Stderr, "run %d/%d (seed %d) done\n", i+1, n, o.seed+int64(i))
	}
	type summary struct {
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		Spread float64 `json:"spread"`
		Unit   string  `json:"unit"`
	}
	sums := make(map[string]summary, len(values))
	for _, name := range sortedKeys(values) {
		q := quartiles(values[name])
		med := median(append([]float64(nil), values[name]...))
		s := summary{Median: med, Q1: q[0], Q3: q[2], Spread: ratio(q[2]-q[0], med), Unit: units[name]}
		sums[name] = s
		fmt.Fprintf(os.Stderr, "%-34s median %-14.6g q1 %-14.6g q3 %-14.6g spread %.4f  %.6g\n", name, s.Median, s.Q1, s.Q3, s.Spread, values[name])
	}
	b, err := json.Marshal(map[string]any{"workload": o.workload, "runs": n, "first_seed": o.seed, "metrics": sums})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// quartiles matches Python's statistics.quantiles(xs, n=4), whose
// default method is "exclusive".
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	var out [3]float64
	if len(d) < 2 {
		for i := range out {
			if len(d) == 1 {
				out[i] = d[0]
			}
		}
		return out
	}
	m := len(d) + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), len(d)-1)
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
