package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"lpp/internal/online"
	"lpp/internal/phase"
	"lpp/internal/trace"
)

// syntheticEvents builds a phased workload as decoded trace events:
// `phases` region sweeps cycling through 10 disjoint 16KB regions, the
// same shape the online package's own tests use. The seed offsets the
// address space so different sessions stream provably different data.
func syntheticEvents(seed, phases, sweeps int) []trace.Event {
	const regions = 10
	const elems = 2048
	var events []trace.Event
	for p := 0; p < phases; p++ {
		base := trace.Addr(uint64(seed)<<32 | uint64(p%regions)*10<<20)
		events = append(events, trace.Event{Kind: trace.EventBlock, Block: trace.BlockID(p % regions), Instrs: 64})
		for s := 0; s < sweeps; s++ {
			for i := 0; i < elems; i++ {
				events = append(events, trace.Event{Kind: trace.EventAccess, Addr: base + trace.Addr(i*8)})
			}
		}
	}
	return events
}

// encodeNDJSON renders events in the NDJSON request format.
func encodeNDJSON(events []trace.Event) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ev := range events {
		if ev.Kind == trace.EventBlock {
			enc.Encode(wireEvent{Kind: "block", Block: uint64(ev.Block), Instrs: ev.Instrs})
		} else {
			enc.Encode(wireEvent{Kind: "access", Addr: uint64(ev.Addr)})
		}
	}
	return buf.Bytes()
}

// encodeBinary renders events as one self-contained binary trace chunk.
func encodeBinary(t *testing.T, events []trace.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, ev := range events {
		ev.Feed(w)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("encode binary chunk: %v", err)
	}
	return buf.Bytes()
}

// encodeChunkV2 renders events as one columnar v2 chunk.
func encodeChunkV2(t *testing.T, events []trace.Event) []byte {
	t.Helper()
	data, err := trace.AppendChunkV2(nil, events)
	if err != nil {
		t.Fatalf("encode v2 chunk: %v", err)
	}
	return data
}

// decodeResponse parses an NDJSON phase-event response body.
func decodeResponse(t *testing.T, body []byte) []phaseWire {
	t.Helper()
	var out []phaseWire
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var pw phaseWire
		if err := json.Unmarshal(sc.Bytes(), &pw); err != nil {
			t.Fatalf("bad response line %q: %v", sc.Text(), err)
		}
		out = append(out, pw)
	}
	return out
}

// mustServer builds a Server or fails the test.
func mustServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func post(t *testing.T, h http.Handler, path, contentType string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func do(t *testing.T, h http.Handler, method, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// chunked posts events in fixed-size chunks and returns all phase
// events from the responses plus the DELETE's final flush.
func chunked(t *testing.T, h http.Handler, id string, events []trace.Event, chunkLen int, binary bool) []phaseWire {
	t.Helper()
	var out []phaseWire
	for off := 0; off < len(events); off += chunkLen {
		end := off + chunkLen
		if end > len(events) {
			end = len(events)
		}
		var body []byte
		ct := "application/x-ndjson"
		if binary {
			body = encodeBinary(t, events[off:end])
			ct = "application/x-lpp-trace"
		} else {
			body = encodeNDJSON(events[off:end])
		}
		rr := post(t, h, "/v1/sessions/"+id+"/events", ct, body)
		if rr.Code != http.StatusOK {
			t.Fatalf("chunk at %d: status %d: %s", off, rr.Code, rr.Body.String())
		}
		out = append(out, decodeResponse(t, rr.Body.Bytes())...)
	}
	rr := do(t, h, "DELETE", "/v1/sessions/"+id)
	if rr.Code != http.StatusOK {
		t.Fatalf("delete: status %d: %s", rr.Code, rr.Body.String())
	}
	return append(out, decodeResponse(t, rr.Body.Bytes())...)
}

// expected runs the same events through a local detector: server
// responses must match because chunking carries no detector state.
func expected(events []trace.Event) []phase.Event {
	var got []phase.Event
	d := online.NewDetector(online.Config{OnEvent: func(ev phase.Event) { got = append(got, ev) }})
	for _, ev := range events {
		ev.Feed(d)
	}
	d.Flush()
	return got
}

func assertMatches(t *testing.T, got []phaseWire, want []phase.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("event count %d, want %d", len(got), len(want))
	}
	for i := range got {
		w := phaseWire{Kind: want[i].Kind.String(), Time: want[i].Time, Instructions: want[i].Instructions, Phase: want[i].Phase}
		if got[i] != w {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], w)
		}
	}
}

func TestNDJSONSessionMatchesLocalDetector(t *testing.T) {
	s := mustServer(t, Config{})
	defer s.Close()
	events := syntheticEvents(1, 8, 6)
	got := chunked(t, s.Handler(), "ndjson", events, 10000, false)
	want := expected(events)
	if len(want) == 0 {
		t.Fatal("workload produced no phase events")
	}
	assertMatches(t, got, want)
}

func TestBinarySessionMatchesLocalDetector(t *testing.T) {
	s := mustServer(t, Config{})
	defer s.Close()
	events := syntheticEvents(2, 8, 6)
	got := chunked(t, s.Handler(), "binary", events, 10000, true)
	want := expected(events)
	if len(want) == 0 {
		t.Fatal("workload produced no phase events")
	}
	assertMatches(t, got, want)
}

// TestBinarySniffedWithoutContentType: a binary body with no
// Content-Type must be recognized by its magic header.
func TestBinarySniffedWithoutContentType(t *testing.T) {
	s := mustServer(t, Config{})
	defer s.Close()
	body := encodeBinary(t, syntheticEvents(3, 1, 1)[:500])
	rr := post(t, s.Handler(), "/v1/sessions/sniff/events", "", body)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	st := do(t, s.Handler(), "GET", "/v1/sessions/sniff/stats")
	var stats map[string]int64
	if err := json.Unmarshal(st.Body.Bytes(), &stats); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats["events"] != 500 {
		t.Errorf("session saw %d events, want 500", stats["events"])
	}
}

func TestMalformedChunksRejected(t *testing.T) {
	s := mustServer(t, Config{})
	defer s.Close()
	h := s.Handler()
	for name, body := range map[string][]byte{
		"bad json":     []byte("{not json\n"),
		"unknown kind": []byte(`{"kind":"jump","addr":1}` + "\n"),
		"bad binary":   []byte("LPPTRACE1\n\xff\xff"),
	} {
		rr := post(t, h, "/v1/sessions/bad/events", "", body)
		if rr.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, rr.Code)
		}
	}
	// A rejected chunk must not have created or fed the session.
	if rr := do(t, h, "GET", "/v1/sessions/bad/stats"); rr.Code != http.StatusNotFound {
		t.Errorf("session exists after only malformed chunks (status %d)", rr.Code)
	}
}

func TestBackpressure429(t *testing.T) {
	s := mustServer(t, Config{QueueDepth: 1})
	defer s.Close()
	h := s.Handler()
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s.testChunkHook = func() {
		started <- struct{}{}
		<-release
	}
	body := encodeNDJSON(syntheticEvents(4, 1, 1)[:100])

	var wg sync.WaitGroup
	asyncPost := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rr := post(t, h, "/v1/sessions/bp/events", "", body)
			if rr.Code != http.StatusOK {
				t.Errorf("held chunk finished with status %d", rr.Code)
			}
		}()
	}
	asyncPost() // worker picks this up and blocks in the hook
	<-started
	asyncPost() // sits in the queue (depth 1)
	sess, err := s.getSession("bp", false)
	if err != nil {
		t.Fatalf("getSession: %v", err)
	}
	for len(sess.queue) == 0 {
		runtime.Gosched()
	}
	// Queue full, worker busy: the next chunk must bounce.
	rr := post(t, h, "/v1/sessions/bp/events", "", body)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d with full queue, want 429", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After")
	}
	close(release)
	wg.Wait()
	s.testChunkHook = nil

	metricsBody := do(t, h, "GET", "/metrics").Body.String()
	if !strings.Contains(metricsBody, "lpp_rejected_chunks_total 1") {
		t.Errorf("metrics missing rejected chunk:\n%s", metricsBody)
	}
}

func TestSessionLimit(t *testing.T) {
	s := mustServer(t, Config{MaxSessions: 2})
	defer s.Close()
	h := s.Handler()
	body := encodeNDJSON(syntheticEvents(5, 1, 1)[:50])
	for i := 0; i < 2; i++ {
		if rr := post(t, h, fmt.Sprintf("/v1/sessions/s%d/events", i), "", body); rr.Code != http.StatusOK {
			t.Fatalf("session %d: status %d", i, rr.Code)
		}
	}
	if rr := post(t, h, "/v1/sessions/s2/events", "", body); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d past session cap, want 503", rr.Code)
	}
	// Deleting one frees a slot.
	if rr := do(t, h, "DELETE", "/v1/sessions/s0"); rr.Code != http.StatusOK {
		t.Fatalf("delete: status %d", rr.Code)
	}
	if rr := post(t, h, "/v1/sessions/s2/events", "", body); rr.Code != http.StatusOK {
		t.Fatalf("status %d after freeing a slot", rr.Code)
	}
}

func TestDeleteUnknownSession(t *testing.T) {
	s := mustServer(t, Config{})
	defer s.Close()
	if rr := do(t, s.Handler(), "DELETE", "/v1/sessions/ghost"); rr.Code != http.StatusNotFound {
		t.Errorf("status %d deleting unknown session, want 404", rr.Code)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := mustServer(t, Config{})
	defer s.Close()
	h := s.Handler()
	if rr := do(t, h, "GET", "/healthz"); rr.Code != http.StatusOK || rr.Body.String() != "ok\n" {
		t.Errorf("healthz: %d %q", rr.Code, rr.Body.String())
	}
	post(t, h, "/v1/sessions/m/events", "", encodeNDJSON(syntheticEvents(6, 1, 1)[:200]))
	body := do(t, h, "GET", "/metrics").Body.String()
	for _, want := range []string{
		"lpp_sessions_active 1",
		"lpp_sessions_total 1",
		"lpp_events_total 200",
		"lpp_chunks_total 1",
		"lpp_events_per_second ",
		`lpp_detect_latency_seconds{quantile="0.99"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}
