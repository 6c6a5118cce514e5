// Package warmstart drives warm-vs-cold session comparisons: it
// streams a recorded trace through the online detector with a
// predictor + knowledge consumer pair and reports when the first
// length prediction landed, with what accuracy and coverage. The same
// runner backs cmd/lpp's offline warm-start mode, lppbench -warmstart,
// the server's acceptance tests, and the fingerprint-stability suite —
// one code path, so the numbers they report are the numbers the tests
// pin.
package warmstart

import (
	"fmt"

	"lpp/internal/knowledge"
	"lpp/internal/online"
	"lpp/internal/phase"
	"lpp/internal/predictor"
	"lpp/internal/trace"
	"lpp/internal/workload"
)

// Config parameterizes one session run.
type Config struct {
	// Detector configures the online detector (OnEvent is overwritten).
	Detector online.Config
	// Policy is the prediction policy (default Strict).
	Policy predictor.Policy
}

// Result is one session's outcome.
type Result struct {
	Events     int64 `json:"events"`
	Boundaries int64 `json:"boundaries"`

	// FirstPredictionBoundary is the 1-based boundary index at which
	// the predictor issued its first length prediction; -1 if it never
	// predicted. FirstPredictionEvent is the 0-based index of the
	// trace event being processed at that moment (Events for
	// flush-time boundaries); the detector identifies early boundaries
	// retrospectively and can emit several at one event, so
	// FirstPredictionTime — the boundary's logical access time — is
	// the honest latency measure.
	FirstPredictionBoundary int64 `json:"first_prediction_boundary"`
	FirstPredictionEvent    int64 `json:"first_prediction_event"`
	FirstPredictionTime     int64 `json:"first_prediction_time"`

	Predictions int64   `json:"predictions"`
	Accuracy    float64 `json:"accuracy"`
	Coverage    float64 `json:"coverage"`

	WarmStarted bool    `json:"warm_started"`
	Matched     uint64  `json:"matched_fingerprint,omitempty"`
	MatchScore  float64 `json:"match_score,omitempty"`
	Fingerprint uint64  `json:"fingerprint"`
}

// Run streams events through a fresh detector and consumer pair. With
// a non-nil store the session attempts a warm start against it; with
// contribute set, the session's learned knowledge is folded into the
// store afterwards (training). Events are fed one at a time; chunked
// feeding detects identically (pinned by the golden parity suite), so
// per-event feeding only sharpens FirstPredictionEvent.
func Run(events []trace.Event, cfg Config, store *knowledge.Store, contribute bool) Result {
	pc := phase.NewPredictorConsumer(cfg.Policy)
	kc := knowledge.NewConsumer(store, pc)
	res := Result{FirstPredictionBoundary: -1, FirstPredictionEvent: -1, FirstPredictionTime: -1}
	cur := int64(0)
	dcfg := cfg.Detector
	// The knowledge consumer runs first so a warm start lands before
	// the predictor consumes the boundary that triggered it.
	dcfg.OnEvent = func(ev phase.Event) {
		_ = kc.Consume(ev)
		_ = pc.Consume(ev)
		if ev.Kind != phase.BoundaryDetected {
			return
		}
		res.Boundaries++
		if res.FirstPredictionBoundary < 0 && pc.Predictor().Predictions() > 0 {
			res.FirstPredictionBoundary = res.Boundaries
			res.FirstPredictionEvent = cur
			res.FirstPredictionTime = ev.Time
		}
	}
	d := online.NewDetector(dcfg)
	for i, ev := range events {
		cur = int64(i)
		if ev.Kind == trace.EventBlock {
			d.Block(ev.Block, ev.Instrs)
		} else {
			d.Access(ev.Addr)
		}
	}
	cur = int64(len(events))
	d.Flush()

	res.Events = int64(len(events))
	res.Predictions = pc.Predictor().Predictions()
	res.Accuracy = pc.Predictor().Accuracy()
	res.Coverage = pc.Predictor().Coverage(0)
	res.Fingerprint = kc.Fingerprint()
	res.Matched, res.MatchScore, res.WarmStarted = kc.WarmStarted()
	if contribute && store != nil {
		if entry, ok := kc.Entry(); ok {
			store.Contribute(entry)
		}
	}
	return res
}

// Case is one golden workload: the nine benchmarks the repo pins
// parity and golden fixtures on, with the same training parameters.
type Case struct {
	Name          string
	Params        workload.Params
	KeepIrregular bool
}

// Cases returns the nine golden workloads.
func Cases() []Case {
	return []Case{
		{"fft", workload.Params{N: 512, Steps: 6, Seed: 1}, false},
		{"applu", workload.Params{N: 14, Steps: 5, Seed: 1}, false},
		{"compress", workload.Params{N: 8192, Steps: 5, Seed: 1}, false},
		{"gcc", workload.Params{N: 60, Steps: 20, Seed: 1}, true},
		{"tomcatv", workload.Params{N: 48, Steps: 6, Seed: 1}, false},
		{"swim", workload.Params{N: 48, Steps: 6, Seed: 1}, false},
		{"vortex", workload.Params{N: 1 << 12, Steps: 6, Seed: 1}, true},
		{"mesh", workload.Params{N: 2048, Steps: 6, Seed: 1}, false},
		{"moldyn", workload.Params{N: 200, Steps: 6, Seed: 1}, false},
	}
}

// ByName returns the golden case with that name.
func ByName(name string) (Case, error) {
	for _, c := range Cases() {
		if c.Name == name {
			return c, nil
		}
	}
	return Case{}, fmt.Errorf("warmstart: unknown workload %q", name)
}

// Detector returns the case's detector configuration.
func (c Case) Detector() online.Config {
	cfg := online.DefaultConfig()
	cfg.KeepIrregular = c.KeepIrregular
	return cfg
}

// Events records the case's trace and flattens it to the event stream
// the server's decoder hands to AccessBatch, in Replay order.
func (c Case) Events() ([]trace.Event, error) {
	spec, err := workload.ByName(c.Name)
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder(1<<20, 1<<16)
	spec.Make(c.Params).Run(rec)
	return rec.T.Events(), nil
}
