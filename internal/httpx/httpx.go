// Package httpx holds the HTTP retry policy shared by every client in
// the system — perfbench's stream clients, the checkpoint replicator,
// and the cluster router. The policy has two
// halves: capped exponential backoff with jitter for failures the
// server said nothing useful about, and server-paced waits for 429s
// that carry a Retry-After or X-Lpp-Retry-After-Ms hint. A hinted wait
// never grows the exponential backoff: the server already paced the
// client, so the next failure should not be punished for it.
package httpx

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// Backoff is a capped exponential backoff with jitter. The zero value
// is unusable; fill Min and Max (Next panics on Min <= 0). Backoff is
// not safe for concurrent use — give each retry loop its own.
type Backoff struct {
	// Min is the first delay; Max caps the growth.
	Min, Max time.Duration
	cur      time.Duration
}

// Next returns the current delay plus up to 50% jitter and doubles the
// base for the next call, capped at Max.
func (b *Backoff) Next() time.Duration {
	if b.cur <= 0 {
		b.cur = b.Min
	}
	if b.Max < b.Min {
		b.Max = b.Min
	}
	d := b.cur
	if b.cur *= 2; b.cur > b.Max {
		b.cur = b.Max
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// Sleep waits Next(), or returns false immediately if stop closes
// first. A nil stop channel never interrupts the wait.
func (b *Backoff) Sleep(stop <-chan struct{}) bool {
	t := time.NewTimer(b.Next())
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}

// Reset restarts the growth at Min (call after a success).
func (b *Backoff) Reset() { b.cur = 0 }

// RetryAfter extracts the server's wait hint from a response:
// X-Lpp-Retry-After-Ms first (millisecond resolution), then the
// standard Retry-After delay-seconds form. Zero means no usable hint.
// Hints are clamped to max so a confused server can't stall the
// client; max <= 0 means 5s.
func RetryAfter(h http.Header, max time.Duration) time.Duration {
	if max <= 0 {
		max = 5 * time.Second
	}
	if v := h.Get("X-Lpp-Retry-After-Ms"); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms > 0 {
			if d := time.Duration(ms) * time.Millisecond; d < max {
				return d
			}
			return max
		}
	}
	if v := h.Get("Retry-After"); v != "" {
		if sec, err := strconv.ParseInt(v, 10, 64); err == nil && sec > 0 {
			if d := time.Duration(sec) * time.Second; d < max {
				return d
			}
			return max
		}
	}
	return 0
}

// RetryCounts tallies the transient failures a retry loop rode out.
type RetryCounts struct {
	// Status429 and Status5xx count retried HTTP failures; Conn counts
	// connection-level errors.
	Status429, Status5xx, Conn int
	// Hinted counts the retries that waited a server-provided interval
	// instead of blind exponential backoff.
	Hinted int
	// Replayed counts responses served from the server's idempotency
	// cache (X-Lpp-Replayed).
	Replayed int
}

// MaxChunkAttempts bounds the retry loop for one chunk; with the
// backoff below it spans roughly half a minute of unavailability.
const MaxChunkAttempts = 60

// PostChunk sends one seq-numbered chunk with the given Content-Type,
// retrying transient failures — 429 backpressure, 5xx, and connection
// errors — resending the same body under the same sequence number each
// time. The sequence number makes retries idempotent: a chunk the
// server already applied is answered from its response cache instead
// of being double-fed into the detector. Responses with any other
// status (including 409 sequence gaps) are returned to the caller
// unread.
func PostChunk(client *http.Client, url string, seq uint64, body []byte, contentType string, rc *RetryCounts) (*http.Response, error) {
	bo := Backoff{Min: 5 * time.Millisecond, Max: 500 * time.Millisecond}
	return postChunk(client, url, seq, body, contentType, rc, MaxChunkAttempts, bo)
}

// postChunk is PostChunk with the retry budget and backoff injectable,
// so tests can exhaust the loop without its half-minute of sleeps.
func postChunk(client *http.Client, url string, seq uint64, body []byte, contentType string, rc *RetryCounts, maxAttempts int, bo Backoff) (*http.Response, error) {
	var lastErr error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		req, err := http.NewRequest("POST", url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", contentType)
		req.Header.Set("X-Lpp-Seq", strconv.FormatUint(seq, 10))
		resp, err := client.Do(req)
		var hint time.Duration
		switch {
		case err != nil:
			rc.Conn++
			lastErr = err
		case resp.StatusCode == http.StatusTooManyRequests:
			rc.Status429++
			hint = RetryAfter(resp.Header, 5*time.Second)
			lastErr = fmt.Errorf("server answered %s", resp.Status)
		case resp.StatusCode >= 500:
			rc.Status5xx++
			lastErr = fmt.Errorf("server answered %s", resp.Status)
		default:
			if resp.Header.Get("X-Lpp-Replayed") == "true" {
				rc.Replayed++
			}
			return resp, nil
		}
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if hint > 0 {
			rc.Hinted++
			time.Sleep(hint)
			continue
		}
		time.Sleep(bo.Next())
	}
	return nil, fmt.Errorf("seq %d: gave up after %d attempts: %w", seq, maxAttempts, lastErr)
}
