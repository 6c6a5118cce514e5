package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"lpp/internal/trace"
)

// decodeVia runs one body through the pooled decoder and copies the
// result out (the slice is only valid until the state is recycled).
func decodeVia(t *testing.T, s *Server, contentType string, body []byte) ([]trace.Event, error) {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/sessions/x/events", bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	st := getDecodeState()
	defer putDecodeState(st)
	cols, err := s.decodeChunk(req, st)
	if err != nil {
		return nil, err
	}
	return cols.AppendEvents(nil), nil
}

// TestNDJSONFastPathMatchesEncodingJSON cross-checks the hand-rolled
// line parser against encoding/json on canonical lines, whitespace
// variants, reordered keys, and every fallback shape (escapes, floats,
// unknown keys, overflow). Both paths must agree event for event.
func TestNDJSONFastPathMatchesEncodingJSON(t *testing.T) {
	lines := []string{
		`{"kind":"access","addr":4096}`,
		`{"kind":"access","addr":0}`,
		`{"kind":"access","addr":18446744073709551615}`,
		`{"kind":"block","block":7,"instrs":64}`,
		`{"kind":"block","block":0,"instrs":0}`,
		`{"kind":"block"}`,
		`{"addr":64,"kind":"access"}`,
		`{"instrs":9,"block":3,"kind":"block"}`,
		`  { "kind" : "access" , "addr" : 12 }  `,
		`{"kind":"acc\u0065ss","addr":5}`,   // escaped string → fallback
		`{"kind":"access","addr":77,"x":1}`, // unknown key → fallback
		`{"kind":"access","addr":77,"x":{"y":[1,2]}}`,
	}
	for _, line := range lines {
		t.Run(line, func(t *testing.T) {
			var we wireEvent
			if err := json.Unmarshal([]byte(line), &we); err != nil {
				t.Fatalf("reference unmarshal: %v", err)
			}
			var want trace.Event
			switch we.Kind {
			case "access":
				want = trace.Event{Kind: trace.EventAccess, Addr: trace.Addr(we.Addr)}
			case "block":
				want = trace.Event{Kind: trace.EventBlock, Block: trace.BlockID(we.Block), Instrs: we.Instrs}
			default:
				t.Fatalf("reference kind %q", we.Kind)
			}
			got, ok := parseWireEvent(bytes.TrimSpace([]byte(line)))
			if ok && got != want {
				t.Errorf("fast path = %+v, want %+v", got, want)
			}
			// ok=false is always legal (fallback owns it); verify the
			// full decoder agrees with the reference either way.
			s := mustServer(t, Config{})
			defer s.Close()
			events, err := decodeVia(t, s, "", []byte(line+"\n"))
			if err != nil {
				t.Fatalf("decodeChunk: %v", err)
			}
			if len(events) != 1 || events[0] != want {
				t.Errorf("decodeChunk = %+v, want [%+v]", events, want)
			}
		})
	}
}

// TestNDJSONFastPathRejectsMalformed: lines the fast path cannot prove
// canonical must reach encoding/json so errors keep their wording.
func TestNDJSONFastPathRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		`{not json`,
		`{}`,
		`{"kind":"jump","addr":1}`,
		`{"kind":"access","addr":-1}`,
		`{"kind":"access","addr":1.0e3}`, // float: encoding/json rejects for uint64 too
		`[1,2,3]`,
		`{"kind":"access","addr":184467440737095516150}`, // uint64 overflow
	} {
		if ev, ok := parseWireEvent([]byte(line)); ok {
			// Only acceptable if encoding/json also accepts it with the
			// same result; none of these qualify except via kind check.
			t.Errorf("fast path accepted %q as %+v", line, ev)
		}
	}
	s := mustServer(t, Config{})
	defer s.Close()
	if _, err := decodeVia(t, s, "", []byte(`{"kind":"jump","addr":1}`+"\n")); err == nil ||
		!bytes.Contains([]byte(err.Error()), []byte("unknown kind")) {
		t.Errorf("unknown kind error = %v", err)
	}
	if _, err := decodeVia(t, s, "", []byte("{not json\n")); err == nil ||
		!bytes.Contains([]byte(err.Error()), []byte("ndjson line 1")) {
		t.Errorf("malformed line error = %v", err)
	}
}

// TestDecodeReuseIsClean: a pooled state must not leak one chunk's
// events, reader position, or delta-decoding state into the next.
func TestDecodeReuseIsClean(t *testing.T) {
	s := mustServer(t, Config{})
	defer s.Close()
	big := syntheticEvents(1, 2, 1)[:3000]
	small := syntheticEvents(2, 1, 1)[:10]
	bigBin := encodeBinary(t, big)
	smallBin := encodeBinary(t, small)
	st := getDecodeState()
	defer putDecodeState(st)
	decode := func(body []byte) []trace.Event {
		req := httptest.NewRequest("POST", "/x", bytes.NewReader(body))
		cols, err := s.decodeChunk(req, st)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		return cols.AppendEvents(nil)
	}
	if got := decode(bigBin); len(got) != len(big) || got[len(got)-1] != big[len(big)-1] {
		t.Fatalf("big chunk decoded to %d events", len(got))
	}
	got := decode(smallBin)
	if len(got) != len(small) {
		t.Fatalf("after reuse: %d events, want %d", len(got), len(small))
	}
	for i := range small {
		if got[i] != small[i] {
			t.Fatalf("event %d = %+v, want %+v (stale state leaked)", i, got[i], small[i])
		}
	}
	if got := decode(encodeNDJSON(small)); len(got) != len(small) || got[0] != small[0] {
		t.Fatalf("ndjson after binary reuse: %d events", len(got))
	}
}

// TestDecodeSteadyStateAllocs pins the per-event allocation cost of
// both decoders at zero in the steady state: a warm pooled state
// decodes a chunk with only per-chunk constant overhead (the
// MaxBytesReader wrapper, the scanner struct), which amortizes to
// under a hundredth of an allocation per event.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-runtime allocations")
	}
	s := mustServer(t, Config{})
	defer s.Close()
	events := syntheticEvents(1, 2, 2)[:4096]
	for name, c := range map[string]struct {
		body []byte
		ct   string
	}{
		"binary":  {encodeBinary(t, events), "application/x-lpp-trace"},
		"ndjson":  {encodeNDJSON(events), ""},
		"chunkv2": {encodeChunkV2(t, events), trace.ChunkV2ContentType},
	} {
		t.Run(name, func(t *testing.T) {
			st := getDecodeState()
			defer putDecodeState(st)
			reader := bytes.NewReader(c.body)
			req := httptest.NewRequest("POST", "/x", reader)
			req.Header.Set("Content-Type", c.ct)
			run := func() {
				reader.Reset(c.body)
				req.Body = io.NopCloser(reader)
				if _, err := s.decodeChunk(req, st); err != nil {
					t.Fatalf("decode: %v", err)
				}
			}
			run() // warm: grow the event slice once
			avg := testing.AllocsPerRun(100, run)
			if perEvent := avg / float64(len(events)); perEvent > 0.01 {
				t.Errorf("%s decode: %.1f allocs per %d-event chunk (%.4f/event), want ~0",
					name, avg, len(events), perEvent)
			}
		})
	}
}

// TestDecodePoolBoundsRetention: a pathologically dense chunk must not
// pin its worst-case buffer in the pool. The trim is checked directly —
// putting a synthetic state into the shared pool would poison it for
// whichever test draws it next.
func TestDecodePoolBoundsRetention(t *testing.T) {
	st := &decodeState{}
	st.cols.Addrs = make([]trace.Addr, maxRetainedEvents+1)
	st.trimForPool()
	if st.cols.Addrs != nil {
		t.Error("oversized event buffer retained for the pool")
	}
	small := &decodeState{}
	small.cols.Addrs = make([]trace.Addr, 128)
	small.trimForPool()
	if cap(small.cols.Addrs) != 128 {
		t.Error("right-sized buffer dropped")
	}
	wide := &decodeState{body: make([]byte, maxRetainedBody+1)}
	wide.cols.Addrs = make([]trace.Addr, maxRetainedEvents)
	wide.cols.IDs = make([]trace.BlockID, 1)
	wide.trimForPool()
	if wide.body != nil {
		t.Error("oversized chunk buffer retained for the pool")
	}
	if wide.cols.Addrs != nil {
		t.Error("oversized column buffers retained for the pool")
	}
	snug := &decodeState{body: make([]byte, 4096)}
	snug.cols.Addrs = make([]trace.Addr, 4096)
	snug.trimForPool()
	if cap(snug.body) != 4096 || cap(snug.cols.Addrs) != 4096 {
		t.Error("right-sized v2 buffers dropped")
	}
}

// TestDecodeChunkV2Negotiation pins the three-way format negotiation:
// a v2 chunk is recognized by magic alone (wrong or missing
// Content-Type included) and by Content-Type alone, decodes to the
// same events as the v1 and NDJSON encodings of the stream, and v1
// bodies keep decoding through the v1 path untouched. Corrupt v2
// frames must fail decode, not fall through to another decoder.
func TestDecodeChunkV2Negotiation(t *testing.T) {
	s := mustServer(t, Config{})
	defer s.Close()
	events := syntheticEvents(3, 2, 1)[:1000]
	v2 := encodeChunkV2(t, events)
	want, err := decodeVia(t, s, "", encodeBinary(t, events))
	if err != nil {
		t.Fatal(err)
	}
	for name, ct := range map[string]string{
		"magic_only":    "",
		"content_type":  trace.ChunkV2ContentType,
		"wrong_v1_type": "application/x-lpp-trace",
	} {
		t.Run(name, func(t *testing.T) {
			got, err := decodeVia(t, s, ct, v2)
			if err != nil {
				t.Fatalf("v2 decode (%s): %v", name, err)
			}
			if len(got) != len(want) {
				t.Fatalf("v2 decode: %d events, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
				}
			}
		})
	}
	t.Run("corrupt", func(t *testing.T) {
		if _, err := decodeVia(t, s, "", v2[:len(v2)-1]); err == nil {
			t.Error("truncated v2 chunk accepted")
		}
		if _, err := decodeVia(t, s, trace.ChunkV2ContentType, encodeNDJSON(events)); err == nil {
			t.Error("NDJSON body with v2 Content-Type accepted")
		}
	})
	t.Run("expansion_guard", func(t *testing.T) {
		tiny := mustServer(t, Config{MaxChunkBytes: 256})
		defer tiny.Close()
		dense := make([]trace.Event, 500)
		for i := range dense {
			dense[i] = trace.Event{Kind: trace.EventBlock, Block: 1, Instrs: 1}
		}
		if _, err := decodeVia(t, tiny, "", encodeChunkV2(t, dense)); err == nil {
			t.Error("chunk expanding past MaxChunkBytes events accepted")
		}
	})
}

// TestIngestChunkV2EndToEnd runs the same event stream, in three
// chunks, through the HTTP ingest path in all three wire formats
// against separate sessions and requires identical responses and
// identical session stats — the server-level proof that format choice
// cannot change detection. The durable server is then killed and
// restarted over the same DataDir: each session's WAL replay must
// regenerate the very response bytes its last chunk first produced
// (served back on a retransmit), and the closing flush must agree
// across formats too.
func TestIngestChunkV2EndToEnd(t *testing.T) {
	events := syntheticEvents(5, 6, 6)
	bounds := chunkBounds(len(events), 3)
	type body struct {
		data []byte
		ct   string
	}
	bodies := map[string][]body{}
	for _, b := range bounds {
		part := events[b[0]:b[1]]
		bodies["v1"] = append(bodies["v1"], body{encodeBinary(t, part), "application/x-lpp-trace"})
		bodies["v2"] = append(bodies["v2"], body{encodeChunkV2(t, part), trace.ChunkV2ContentType})
		bodies["ndjson"] = append(bodies["ndjson"], body{encodeNDJSON(part), ""})
	}
	last := len(bounds)
	postChunk := func(t *testing.T, s *Server, name string, seq int) *httptest.ResponseRecorder {
		t.Helper()
		c := bodies[name][seq-1]
		return post(t, s.Handler(), fmt.Sprintf("/v1/sessions/fmt-%s/events?seq=%d", name, seq), c.ct, c.data)
	}
	// same fails the test unless every format produced the same bytes.
	same := func(t *testing.T, what string, got map[string]string) {
		t.Helper()
		if got["v1"] == "" {
			t.Fatalf("%s: empty; the stream must produce phase events", what)
		}
		for name := range bodies {
			if got[name] != got["v1"] {
				t.Errorf("%s differ between formats:\n v1 %s\n %s %s", what, got["v1"], name, got[name])
			}
		}
	}
	for _, mode := range []string{"ephemeral", "durable"} {
		t.Run(mode, func(t *testing.T) {
			cfg := Config{}
			if mode == "durable" {
				cfg.DataDir = t.TempDir()
			}
			s := mustServer(t, cfg)
			defer func() { s.Close() }()
			stats := map[string]string{}
			responses := map[string]string{}
			lastResp := map[string]string{}
			for name := range bodies {
				for seq := 1; seq <= last; seq++ {
					rr := postChunk(t, s, name, seq)
					if rr.Code != http.StatusOK {
						t.Fatalf("%s ingest of chunk %d: status %d: %s", name, seq, rr.Code, rr.Body.String())
					}
					responses[name] += rr.Body.String()
					lastResp[name] = rr.Body.String()
				}
				st := do(t, s.Handler(), "GET", "/v1/sessions/fmt-"+name+"/stats")
				if st.Code != http.StatusOK {
					t.Fatalf("%s stats: status %d", name, st.Code)
				}
				stats[name] = st.Body.String()
			}
			same(t, "phase-event responses", responses)
			same(t, "session stats", stats)
			if mode != "durable" {
				return
			}
			s.Kill()
			s = mustServer(t, cfg)
			replayed := map[string]string{}
			finals := map[string]string{}
			for name := range bodies {
				rr := postChunk(t, s, name, last)
				if rr.Code != http.StatusOK || rr.Header().Get("X-Lpp-Replayed") != "true" {
					t.Fatalf("%s retransmit after restart: status %d replayed=%q", name, rr.Code, rr.Header().Get("X-Lpp-Replayed"))
				}
				replayed[name] = rr.Body.String()
				if replayed[name] != lastResp[name] {
					t.Errorf("%s: WAL replay response differs from the original:\n got  %s\n want %s", name, replayed[name], lastResp[name])
				}
				if st := do(t, s.Handler(), "GET", "/v1/sessions/fmt-"+name+"/stats"); st.Body.String() != stats[name] {
					t.Errorf("%s: stats after restart %s, want %s", name, st.Body.String(), stats[name])
				}
				del := do(t, s.Handler(), "DELETE", "/v1/sessions/fmt-"+name)
				if del.Code != http.StatusOK {
					t.Fatalf("%s delete: status %d: %s", name, del.Code, del.Body.String())
				}
				finals[name] = del.Body.String()
			}
			same(t, "replayed responses", replayed)
			same(t, "closing flushes", finals)
		})
	}
}

// BenchmarkIngestChunk measures the full HTTP ingest path — decode,
// dispatch, detector feed, response encode — for both wire formats.
func BenchmarkIngestChunk(b *testing.B) {
	for _, format := range []string{"binary", "ndjson", "chunkv2"} {
		b.Run(format, func(b *testing.B) {
			s, err := New(Config{QueueDepth: 4})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			h := s.Handler()
			events := syntheticEvents(1, 4, 2)[:8192]
			var body []byte
			ct := ""
			switch format {
			case "binary":
				var buf bytes.Buffer
				w := trace.NewWriter(&buf)
				for _, ev := range events {
					ev.Feed(w)
				}
				if err := w.Flush(); err != nil {
					b.Fatal(err)
				}
				body = buf.Bytes()
				ct = "application/x-lpp-trace"
			case "chunkv2":
				if body, err = trace.AppendChunkV2(nil, events); err != nil {
					b.Fatal(err)
				}
				ct = trace.ChunkV2ContentType
			default:
				body = encodeNDJSON(events)
			}
			reader := bytes.NewReader(body)
			req := httptest.NewRequest("POST", "/v1/sessions/bench/events", reader)
			if ct != "" {
				req.Header.Set("Content-Type", ct)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reader.Reset(body)
				req.Body = io.NopCloser(reader)
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, req)
				if rr.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rr.Code, rr.Body.String())
				}
			}
			b.ReportMetric(float64(b.N)*float64(len(events))/b.Elapsed().Seconds(), "events/s")
		})
	}
}
