package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function (the program itself carries no tracing).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	Name    string `json:"name"`
	Session string `json:"session,omitempty"`
	Chunk   int    `json:"chunk"` // 1-based chunk seq; 0 when not per chunk
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced passes pay one nil check per call site.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	// open maps a session id to the client span waiting on it, so a
	// router forward for that session becomes its child.
	open map[string]int
}

func newTracer() *tracer { return &tracer{origin: time.Now(), open: make(map[string]int)} }

// wait marks span id as the one waiting on session; 0 clears it.
func (t *tracer) wait(session string, id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		delete(t.open, session)
	} else {
		t.open[session] = id
	}
}

// waiting returns the span waiting on session (0 for none).
func (t *tracer) waiting(session string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open[session]
}

// record stores a finished span and returns its id.
func (t *tracer) record(name string, parent int, session string, chunk int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Session: session, Chunk: chunk,
		StartNs: start.Sub(t.origin).Nanoseconds(), EndNs: end.Sub(t.origin).Nanoseconds(),
	})
	return id
}

// reserve allocates a span id for a parent whose children finish before
// it does; fill completes it.
func (t *tracer) reserve(name string, parent int, session string, chunk int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Session: session, Chunk: chunk})
	return len(t.spans)
}

func (t *tracer) fill(id int, start, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].StartNs = start.Sub(t.origin).Nanoseconds()
	t.spans[id-1].EndNs = end.Sub(t.origin).Nanoseconds()
}

// meanSelf returns the mean self time of the spans called name: each
// span's duration minus the time its child spans cover.
func (t *tracer) meanSelf(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans)+1)
	for i := range t.spans {
		if p := t.spans[i].Parent; p > 0 {
			child[p] += t.spans[i].dur()
		}
	}
	var self time.Duration
	n := 0
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name {
			self += s.dur() - child[s.ID]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return self / time.Duration(n)
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// percentileMs returns the nearest-rank q-quantile of ds in milliseconds
// (0 for no samples). ds is sorted in place.
func percentileMs(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(ds[i].Nanoseconds()) / 1e6
}

// median returns the median of xs (0 for none); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
