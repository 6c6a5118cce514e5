// Package torture is the differential harness for the hostile workload
// families: it replays one generated trace through the three detection
// paths the repository guarantees agreement between —
//
//	offline   core.DetectTrace over the whole recorded trace
//	online    a single streaming online.Detector fed event by event
//	http      the chunked session path through server.Handler
//
// — and scores them against each other and against the generator's own
// ground truth. The HTTP path must reproduce the direct online
// detector's event stream exactly (same config, one synchronous
// client); offline vs online agreement and online vs ground truth are
// recall/precision within a tolerance window, because the pipelines
// legitimately place a boundary at different points inside a phase
// transition. Memory gauges are tracked at every poll so the harness
// doubles as the bounded-memory proof on streams built to break caps.
package torture

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"

	"lpp/internal/core"
	"lpp/internal/online"
	"lpp/internal/phase"
	"lpp/internal/server"
	"lpp/internal/trace"
	"lpp/internal/workload"
)

// Options tunes one harness run. The zero value is ready to use.
type Options struct {
	// Online is the detector configuration used by both the direct
	// streaming path and the HTTP server path (zero fields take the
	// online defaults). OnEvent is overwritten by the harness.
	Online online.Config
	// Chunk is the events-per-POST chunk size for the HTTP path
	// (default 4096).
	Chunk int
	// TolDiv divides the trace length into the boundary-match
	// tolerance (default 50, i.e. 2%); the tolerance is additionally
	// capped at half the median ground-truth phase gap so that a
	// fine-grained truth cannot be matched trivially.
	TolDiv int64
	// PollEvery is how many events pass between memory-gauge polls of
	// the direct detector (default 65536).
	PollEvery int
}

// Report is the outcome of one family's differential run.
type Report struct {
	Family   string `json:"family"`
	Accesses int64  `json:"accesses"`
	Blocks   int64  `json:"blocks"`

	TruthBoundaries   int `json:"truth_boundaries"`
	OfflineBoundaries int `json:"offline_boundaries"`
	OnlineBoundaries  int `json:"online_boundaries"`
	HTTPEvents        int `json:"http_events"`

	// HTTPParity reports exact event-stream equality between the
	// direct detector and the chunked HTTP path.
	HTTPParity bool `json:"http_parity"`
	// OfflineRecall is the fraction of offline boundaries with an
	// online boundary within tolerance (the PR 1 parity metric).
	OfflineRecall float64 `json:"offline_recall"`
	// TruthRecall and TruthPrecision score the online boundaries
	// against the generator's ground truth.
	TruthRecall    float64 `json:"truth_recall"`
	TruthPrecision float64 `json:"truth_precision"`
	// Tolerance is the resolved match window, in accesses.
	Tolerance int64 `json:"tolerance"`

	// Peak memory gauges observed across the stream, and the hardening
	// counters at end of stream.
	MaxGrammarSize  int   `json:"max_grammar_size"`
	MaxSignature    int   `json:"max_signature"`
	MaxWindow       int   `json:"max_window"`
	MaxPhases       int   `json:"max_phases"`
	Suppressed      int64 `json:"suppressed_boundaries"`
	GrammarRestarts int64 `json:"grammar_restarts"`
	TruncatedPages  int64 `json:"truncated_pages"`
}

func (o Options) withDefaults() Options {
	if o.Chunk <= 0 {
		o.Chunk = 4096
	}
	if o.TolDiv <= 0 {
		o.TolDiv = 50
	}
	if o.PollEvery <= 0 {
		o.PollEvery = 65536
	}
	return o
}

// Run executes the differential harness for one hostile family.
func Run(family string, opt Options) (*Report, error) {
	spec, err := workload.HostileByName(family)
	if err != nil {
		return nil, err
	}
	return RunSpec(spec, spec.Params, opt)
}

// RunSpec is Run with an explicit family spec and parameters, so
// callers can sweep quantum/jitter/seed.
func RunSpec(spec workload.HostileSpec, params workload.HostileParams, opt Options) (*Report, error) {
	opt = opt.withDefaults()

	// Generate once; every path replays the identical trace.
	prog := spec.Make(params)
	rec := trace.NewRecorder(1<<20, 1<<14)
	prog.Run(rec)
	truth := prog.Truth()
	events := rec.T.Events()

	rep := &Report{
		Family:          spec.Name,
		Accesses:        int64(len(rec.T.Accesses)),
		Blocks:          int64(len(rec.T.Blocks)),
		TruthBoundaries: len(truth.Boundaries),
	}

	// Path 1: offline, whole-trace.
	det, err := core.DetectTrace(&rec.T, core.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("torture: offline detect: %w", err)
	}
	rep.OfflineBoundaries = len(det.Boundaries)

	// Path 2: direct streaming detector, gauges polled along the way.
	var direct []phase.Event
	cfg := opt.Online
	cfg.OnEvent = func(ev phase.Event) { direct = append(direct, ev) }
	d := online.NewDetector(cfg)
	poll := func() {
		st := d.Stats()
		if st.GrammarSize > rep.MaxGrammarSize {
			rep.MaxGrammarSize = st.GrammarSize
		}
		if st.LargestSignature > rep.MaxSignature {
			rep.MaxSignature = st.LargestSignature
		}
		if st.WindowLen > rep.MaxWindow {
			rep.MaxWindow = st.WindowLen
		}
		if st.Phases > rep.MaxPhases {
			rep.MaxPhases = st.Phases
		}
	}
	for i, ev := range events {
		ev.Feed(d)
		if (i+1)%opt.PollEvery == 0 {
			poll()
		}
	}
	d.Flush()
	poll()
	st := d.Stats()
	rep.Suppressed = st.SuppressedBoundaries
	rep.GrammarRestarts = st.GrammarRestarts
	rep.TruncatedPages = st.TruncatedPages

	var online_ []int64
	for _, ev := range direct {
		if ev.Kind == phase.BoundaryDetected {
			online_ = append(online_, ev.Time)
		}
	}
	rep.OnlineBoundaries = len(online_)

	// Path 3: the chunked HTTP server path, same detector config.
	httpEvents, err := runHTTP(opt.Online, events, opt.Chunk)
	if err != nil {
		return nil, err
	}
	rep.HTTPEvents = len(httpEvents)
	rep.HTTPParity = sameEvents(direct, httpEvents)

	// Scoring.
	tol := rep.Accesses / opt.TolDiv
	if g := medianGap(truth.Boundaries) / 2; g > 0 && g < tol {
		tol = g
	}
	if tol < 1 {
		tol = 1
	}
	rep.Tolerance = tol
	rep.OfflineRecall = recall(det.Boundaries, online_, tol)
	rep.TruthRecall = recall(truth.Boundaries, online_, tol)
	rep.TruthPrecision = recall(online_, truth.Boundaries, tol)
	return rep, nil
}

// RunAll runs every hostile family and returns the reports in family
// order.
func RunAll(opt Options) ([]*Report, error) {
	var out []*Report
	for _, spec := range workload.Hostile() {
		rep, err := RunSpec(spec, spec.Params, opt)
		if err != nil {
			return nil, fmt.Errorf("torture: %s: %w", spec.Name, err)
		}
		out = append(out, rep)
	}
	return out, nil
}

// runHTTP streams the events through an in-process server in binary
// chunks — one synchronous client, so the worker sees an empty queue
// and applies no load shedding — and returns the decoded phase events
// from every chunk response plus the closing DELETE.
func runHTTP(cfg online.Config, events []trace.Event, chunk int) ([]phase.Event, error) {
	srv, err := server.New(server.Config{Detector: cfg})
	if err != nil {
		return nil, fmt.Errorf("torture: server: %w", err)
	}
	defer srv.Close()
	h := srv.Handler()

	var out []phase.Event
	for off := 0; off < len(events); off += chunk {
		end := off + chunk
		if end > len(events) {
			end = len(events)
		}
		var body bytes.Buffer
		w := trace.NewWriter(&body)
		for _, ev := range events[off:end] {
			ev.Feed(w)
		}
		if err := w.Flush(); err != nil {
			return nil, fmt.Errorf("torture: encode chunk: %w", err)
		}
		req := httptest.NewRequest("POST", "/v1/sessions/torture/events", &body)
		req.Header.Set("Content-Type", "application/x-lpp-trace")
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			return nil, fmt.Errorf("torture: chunk at %d: status %d: %s", off, rr.Code, rr.Body.String())
		}
		evs, err := decodePhaseNDJSON(rr.Body.Bytes())
		if err != nil {
			return nil, err
		}
		out = append(out, evs...)
	}
	req := httptest.NewRequest("DELETE", "/v1/sessions/torture", nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		return nil, fmt.Errorf("torture: close: status %d: %s", rr.Code, rr.Body.String())
	}
	evs, err := decodePhaseNDJSON(rr.Body.Bytes())
	if err != nil {
		return nil, err
	}
	return append(out, evs...), nil
}

// phaseLine mirrors the server's NDJSON phase-event rendering.
type phaseLine struct {
	Kind         string `json:"kind"`
	Time         int64  `json:"time"`
	Instructions int64  `json:"instructions"`
	Phase        int    `json:"phase"`
}

func decodePhaseNDJSON(body []byte) ([]phase.Event, error) {
	var out []phase.Event
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var pl phaseLine
		if err := json.Unmarshal(line, &pl); err != nil {
			return nil, fmt.Errorf("torture: bad response line %q: %w", line, err)
		}
		k, ok := phase.ParseKind(pl.Kind)
		if !ok {
			return nil, fmt.Errorf("torture: unknown event kind %q", pl.Kind)
		}
		out = append(out, phase.Event{Kind: k, Time: pl.Time, Instructions: pl.Instructions, Phase: pl.Phase})
	}
	return out, sc.Err()
}

// sameEvents reports exact stream equality on the fields the wire
// format carries (the streaming detector leaves Locality zero).
func sameEvents(a, b []phase.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Time != b[i].Time ||
			a[i].Instructions != b[i].Instructions || a[i].Phase != b[i].Phase {
			return false
		}
	}
	return true
}

// recall returns the fraction of want boundaries that have a got
// boundary within tol.
func recall(want, got []int64, tol int64) float64 {
	if len(want) == 0 {
		return 1
	}
	matched := 0
	for _, w := range want {
		i := sort.Search(len(got), func(i int) bool { return got[i] >= w-tol })
		if i < len(got) && got[i]-w < tol && w-got[i] < tol {
			matched++
		}
	}
	return float64(matched) / float64(len(want))
}

// medianGap returns the median spacing between consecutive boundaries
// (0 when fewer than two).
func medianGap(b []int64) int64 {
	if len(b) < 2 {
		return 0
	}
	gaps := make([]int64, 0, len(b)-1)
	for i := 1; i < len(b); i++ {
		gaps = append(gaps, b[i]-b[i-1])
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	return gaps[len(gaps)/2]
}
