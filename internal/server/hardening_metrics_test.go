package server

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"lpp/internal/online"
	"lpp/internal/trace"
	"lpp/internal/workload"
)

// metricValue extracts one counter's value from a Prometheus text body.
func metricValue(t *testing.T, body, name string) int64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`).FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("metrics missing %q:\n%s", name, body)
	}
	v, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestDetectorHardeningMetrics drives a jittery interleaved stream
// through a server whose detector has the boundary-gap guard enabled
// and asserts the lpp_detector_* counters surface the suppressions on
// /metrics. The restart/truncation counters must at least be exported
// (they stay zero on this stream under default caps).
func TestDetectorHardeningMetrics(t *testing.T) {
	dcfg := online.DefaultConfig()
	dcfg.MinBoundaryGap = 4000
	s := mustServer(t, Config{Detector: dcfg})
	defer s.Close()
	h := s.Handler()

	spec, err := workload.HostileByName("interleaved")
	if err != nil {
		t.Fatal(err)
	}
	p := spec.Params
	p.Quantum = 500
	rec := trace.NewRecorder(1<<20, 1<<14)
	spec.Make(p).Run(rec)
	events := rec.T.Events()

	const chunk = 1 << 16
	for off := 0; off < len(events); off += chunk {
		end := off + chunk
		if end > len(events) {
			end = len(events)
		}
		rr := post(t, h, "/v1/sessions/hm/events", "application/x-lpp-trace", encodeBinary(t, events[off:end]))
		if rr.Code != 200 {
			t.Fatalf("chunk at %d: status %d: %s", off, rr.Code, rr.Body.String())
		}
	}
	if rr := do(t, h, "DELETE", "/v1/sessions/hm"); rr.Code != 200 {
		t.Fatalf("close: status %d", rr.Code)
	}

	body := do(t, h, "GET", "/metrics").Body.String()
	if got := metricValue(t, body, "lpp_detector_suppressed_boundaries_total"); got == 0 {
		t.Errorf("no suppressions counted on a quantum-500 stream with MinBoundaryGap=4000")
	}
	for _, name := range []string{
		"lpp_detector_grammar_restarts_total",
		"lpp_detector_truncated_pages_total",
	} {
		if !strings.Contains(body, fmt.Sprintf("# TYPE %s counter", name)) {
			t.Errorf("metrics missing %s:\n%s", name, body)
		}
	}
}
