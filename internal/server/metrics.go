package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// latencyRingSize bounds the chunk-latency history used for the
// percentile and events/sec gauges: recent window, O(1) memory.
const latencyRingSize = 4096

// chunkSample is one processed chunk's contribution to the windowed
// rate and latency metrics.
type chunkSample struct {
	done    time.Time
	latency time.Duration
	events  int
}

// metrics aggregates server-wide counters (atomics, updated on the hot
// path) and a ring of recent chunk samples (mutex-guarded, folded into
// percentiles only on scrape).
type metrics struct {
	start time.Time

	sessionsTotal  atomic.Int64
	eventsTotal    atomic.Int64
	chunksTotal    atomic.Int64
	rejectedChunks atomic.Int64
	boundaries     atomic.Int64
	predictions    atomic.Int64
	panics         atomic.Int64
	recovered      atomic.Int64
	reaped         atomic.Int64
	walErrors      atomic.Int64
	checkpoints    atomic.Int64
	replayed       atomic.Int64
	replicaApplied atomic.Int64
	replicaAdopted atomic.Int64
	replicaRefused atomic.Int64
	migrationsOut  atomic.Int64
	migrationsIn   atomic.Int64

	// Detector hardening totals across all sessions: boundaries
	// suppressed by the MinBoundaryGap guard, grammar restarts forced
	// by MaxGrammar, and signature pages dropped by MaxSignature.
	detSuppressed atomic.Int64
	detRestarts   atomic.Int64
	detTruncated  atomic.Int64

	// Per-consumer delivery totals across all sessions. The name list
	// is fixed at New (probed from the Consumers factory), so workers
	// add deltas by index with no locking.
	consumerNames  []string
	consumerEvents []atomic.Int64
	consumerErrors []atomic.Int64

	ringMu sync.Mutex
	ring   [latencyRingSize]chunkSample
	ringN  int // samples written (ring index = ringN % latencyRingSize)
}

// initConsumers registers the per-consumer counter slots.
func (m *metrics) initConsumers(names []string) {
	m.consumerNames = names
	m.consumerEvents = make([]atomic.Int64, len(names))
	m.consumerErrors = make([]atomic.Int64, len(names))
}

// addConsumer folds one worker's delivery deltas into consumer i's
// totals.
func (m *metrics) addConsumer(i int, events, errors int64) {
	if i < 0 || i >= len(m.consumerNames) {
		return
	}
	m.consumerEvents[i].Add(events)
	m.consumerErrors[i].Add(errors)
}

// observeChunk records one completed chunk: the end-to-end detection
// latency (enqueue to reply) and event count.
func (m *metrics) observeChunk(lat time.Duration, events int) {
	m.chunksTotal.Add(1)
	m.eventsTotal.Add(int64(events))
	m.ringMu.Lock()
	m.ring[m.ringN%latencyRingSize] = chunkSample{done: time.Now(), latency: lat, events: events}
	m.ringN++
	m.ringMu.Unlock()
}

// snapshot folds the ring into the windowed gauges.
func (m *metrics) snapshot() (rate float64, p50, p90, p99 time.Duration) {
	var events int
	oldest := time.Time{}
	m.ringMu.Lock()
	lats := make([]time.Duration, min(m.ringN, latencyRingSize))
	for j := range lats {
		s := m.ring[j]
		lats[j] = s.latency
		events += s.events
		if oldest.IsZero() || s.done.Before(oldest) {
			oldest = s.done
		}
	}
	m.ringMu.Unlock()
	if len(lats) == 0 {
		return 0, 0, 0, 0
	}
	if span := time.Since(oldest); span > 0 {
		rate = float64(events) / span.Seconds()
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(q float64) time.Duration {
		i := int(q * float64(len(lats)-1))
		return lats[i]
	}
	return rate, pct(0.50), pct(0.90), pct(0.99)
}

// write renders the metrics in Prometheus text exposition format;
// active is the number of live sessions.
func (m *metrics) write(w io.Writer, active int) {
	rate, p50, p90, p99 := m.snapshot()
	fmt.Fprintf(w, "# TYPE lpp_sessions_active gauge\n")
	fmt.Fprintf(w, "lpp_sessions_active %d\n", active)
	fmt.Fprintf(w, "# TYPE lpp_sessions_total counter\n")
	fmt.Fprintf(w, "lpp_sessions_total %d\n", m.sessionsTotal.Load())
	fmt.Fprintf(w, "# TYPE lpp_events_total counter\n")
	fmt.Fprintf(w, "lpp_events_total %d\n", m.eventsTotal.Load())
	fmt.Fprintf(w, "# TYPE lpp_chunks_total counter\n")
	fmt.Fprintf(w, "lpp_chunks_total %d\n", m.chunksTotal.Load())
	fmt.Fprintf(w, "# TYPE lpp_rejected_chunks_total counter\n")
	fmt.Fprintf(w, "lpp_rejected_chunks_total %d\n", m.rejectedChunks.Load())
	fmt.Fprintf(w, "# TYPE lpp_boundaries_total counter\n")
	fmt.Fprintf(w, "lpp_boundaries_total %d\n", m.boundaries.Load())
	fmt.Fprintf(w, "# TYPE lpp_predictions_total counter\n")
	fmt.Fprintf(w, "lpp_predictions_total %d\n", m.predictions.Load())
	fmt.Fprintf(w, "# TYPE lpp_session_panics_total counter\n")
	fmt.Fprintf(w, "lpp_session_panics_total %d\n", m.panics.Load())
	fmt.Fprintf(w, "# TYPE lpp_sessions_recovered_total counter\n")
	fmt.Fprintf(w, "lpp_sessions_recovered_total %d\n", m.recovered.Load())
	fmt.Fprintf(w, "# TYPE lpp_sessions_reaped_total counter\n")
	fmt.Fprintf(w, "lpp_sessions_reaped_total %d\n", m.reaped.Load())
	fmt.Fprintf(w, "# TYPE lpp_wal_errors_total counter\n")
	fmt.Fprintf(w, "lpp_wal_errors_total %d\n", m.walErrors.Load())
	fmt.Fprintf(w, "# TYPE lpp_checkpoints_total counter\n")
	fmt.Fprintf(w, "lpp_checkpoints_total %d\n", m.checkpoints.Load())
	fmt.Fprintf(w, "# TYPE lpp_replayed_chunks_total counter\n")
	fmt.Fprintf(w, "lpp_replayed_chunks_total %d\n", m.replayed.Load())
	fmt.Fprintf(w, "# TYPE lpp_migrations_out_total counter\n")
	fmt.Fprintf(w, "lpp_migrations_out_total %d\n", m.migrationsOut.Load())
	fmt.Fprintf(w, "# TYPE lpp_migrations_in_total counter\n")
	fmt.Fprintf(w, "lpp_migrations_in_total %d\n", m.migrationsIn.Load())
	fmt.Fprintf(w, "# TYPE lpp_detector_suppressed_boundaries_total counter\n")
	fmt.Fprintf(w, "lpp_detector_suppressed_boundaries_total %d\n", m.detSuppressed.Load())
	fmt.Fprintf(w, "# TYPE lpp_detector_grammar_restarts_total counter\n")
	fmt.Fprintf(w, "lpp_detector_grammar_restarts_total %d\n", m.detRestarts.Load())
	fmt.Fprintf(w, "# TYPE lpp_detector_truncated_pages_total counter\n")
	fmt.Fprintf(w, "lpp_detector_truncated_pages_total %d\n", m.detTruncated.Load())
	if len(m.consumerNames) > 0 {
		fmt.Fprintf(w, "# TYPE lpp_consumer_events_total counter\n")
		for i, name := range m.consumerNames {
			fmt.Fprintf(w, "lpp_consumer_events_total{consumer=%q} %d\n", name, m.consumerEvents[i].Load())
		}
		fmt.Fprintf(w, "# TYPE lpp_consumer_errors_total counter\n")
		for i, name := range m.consumerNames {
			fmt.Fprintf(w, "lpp_consumer_errors_total{consumer=%q} %d\n", name, m.consumerErrors[i].Load())
		}
	}
	fmt.Fprintf(w, "# TYPE lpp_events_per_second gauge\n")
	fmt.Fprintf(w, "lpp_events_per_second %.1f\n", rate)
	fmt.Fprintf(w, "# TYPE lpp_detect_latency_seconds gauge\n")
	fmt.Fprintf(w, "lpp_detect_latency_seconds{quantile=\"0.5\"} %.6f\n", p50.Seconds())
	fmt.Fprintf(w, "lpp_detect_latency_seconds{quantile=\"0.9\"} %.6f\n", p90.Seconds())
	fmt.Fprintf(w, "lpp_detect_latency_seconds{quantile=\"0.99\"} %.6f\n", p99.Seconds())
	fmt.Fprintf(w, "# TYPE lpp_uptime_seconds gauge\n")
	fmt.Fprintf(w, "lpp_uptime_seconds %.1f\n", time.Since(m.start).Seconds())
}
