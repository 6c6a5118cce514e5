// Package replica streams a node's durable session state to the
// session's ring successor so a node death loses nothing a checkpoint
// captured. The unit of replication is the session checkpoint — the
// same LPPCKPT1-framed, CRC-sealed image the durable layer writes to
// disk — plus session removals and knowledge-store snapshots.
//
// A Replicator writes under one receiver namespace,
// {successor}/v1/replica/{origin}. The receiver keeps each origin's
// images apart from the sessions it owns and from other origins'
// images, so status, resync, orphan deletion and removal only ever see
// this origin's images. A receiver that serves the session itself
// answers a checkpoint with 409: settled, not retried.
//
// Replication is asynchronous and lossy by design: the owner's ingest
// path never waits on the successor. Checkpoints enter a bounded queue
// that coalesces per session (only the newest image matters) and drops
// its oldest entry under overflow; anything dropped — or missed during
// an outage — is repaired by a full resync the next time the successor
// answers. Re-sending is always safe: the receiver ignores images older
// than what it holds. The client side of the failover contract is the
// seq-numbered retry loop: the successor adopts its newest image when
// it takes the session over, and the client re-sends the chunks
// accepted after that image, losing zero acknowledged events.
package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"lpp/internal/durable"
	"lpp/internal/httpx"
)

// Checkpoint is one session's replicated state image.
type Checkpoint struct {
	// Session is the session ID.
	Session string
	// Seq is the sequence number the image covers.
	Seq uint64
	// Snapshot is the checkpointed detector(+chain) image.
	Snapshot []byte
	// Response is the cached response body for Seq.
	Response []byte
}

// Status is the receiver's inventory of one origin's images, served at
// GET {Peer}/status and consumed by the resync path.
type Status struct {
	// Sessions maps session ID to the checkpoint sequence number the
	// receiver holds for this origin.
	Sessions map[string]uint64 `json:"sessions"`
}

// Config tunes a Replicator. Peer and Source are required.
type Config struct {
	// Peer is the base URL of this origin's namespace on the receiving
	// node (e.g. "http://b:8081/v1/replica/http:%2F%2Fa:8080"); the
	// Replicator speaks /status, /sessions/{id} and /knowledge under it.
	Peer string
	// QueueDepth bounds pending replication items (default 64). Under
	// overflow the oldest item is dropped and a resync scheduled.
	QueueDepth int
	// Timeout is the per-request deadline (default 5s).
	Timeout time.Duration
	// MinBackoff..MaxBackoff bound the capped exponential backoff with
	// jitter applied between failed sends (defaults 50ms..5s).
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// Transport overrides the HTTP transport (fault-injection tests).
	Transport http.RoundTripper
	// Source returns the latest durable checkpoint of every session this
	// Replicator covers — the full-resync image. Called whenever the
	// peer reconnects after an outage or a drop.
	Source func() []Checkpoint
	// Knowledge returns the current knowledge-store snapshot for
	// resync, or nil when the server runs without a store.
	Knowledge func() []byte
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.MinBackoff <= 0 {
		c.MinBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.MaxBackoff < c.MinBackoff {
		c.MaxBackoff = c.MinBackoff
	}
	return c
}

// Stats is a point-in-time view of the replication pipeline.
type Stats struct {
	// Queue is the number of items waiting to be sent — the
	// lpp_replica_lag gauge.
	Queue int
	// Sent counts successfully delivered items.
	Sent int64
	// Dropped counts items discarded by queue overflow.
	Dropped int64
	// Coalesced counts enqueues that replaced a pending item for the
	// same session instead of growing the queue.
	Coalesced int64
	// Errors counts failed sends (each retried after backoff).
	Errors int64
	// Resyncs counts completed full-resync passes.
	Resyncs int64
	// Connected reports whether the last send (or resync) succeeded.
	Connected bool
	// LagP50 and LagP99 are enqueue-to-delivery latency percentiles
	// over the recent window of delivered checkpoints.
	LagP50, LagP99 time.Duration
}

const lagWindow = 512

type itemKind int

const (
	itemCheckpoint itemKind = iota
	itemRemove
	itemKnowledge
)

type item struct {
	kind     itemKind
	session  string // checkpoint / remove
	ck       Checkpoint
	snapshot []byte // knowledge
	enqueued time.Time
}

func (it *item) key() string {
	switch it.kind {
	case itemCheckpoint:
		return "c|" + it.session
	case itemRemove:
		return "r|" + it.session
	default:
		return "k"
	}
}

// Replicator owns the replication queue and the sender goroutine.
type Replicator struct {
	cfg    Config
	client *http.Client

	mu         sync.Mutex
	queue      []*item
	index      map[string]*item
	inflight   bool
	needResync bool
	connected  bool
	sent       int64
	dropped    int64
	coalesced  int64
	errors     int64
	resyncs    int64
	lag        [lagWindow]time.Duration
	lagN       int

	kick     chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	cancel   context.CancelFunc
	ctx      context.Context
	done     chan struct{}
}

// New starts a Replicator targeting cfg.Peer. Stop it with Stop.
func New(cfg Config) (*Replicator, error) {
	cfg = cfg.withDefaults()
	if cfg.Peer == "" {
		return nil, errors.New("replica: no peer configured")
	}
	if _, err := url.Parse(cfg.Peer); err != nil {
		return nil, fmt.Errorf("replica: bad peer URL: %w", err)
	}
	if cfg.Source == nil {
		return nil, errors.New("replica: no resync source configured")
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Replicator{
		cfg:    cfg,
		client: &http.Client{Transport: cfg.Transport},
		index:  make(map[string]*item),
		// A fresh owner may already hold durable sessions the peer has
		// never seen (restart after a crash): catch up first.
		needResync: true,
		kick:       make(chan struct{}, 1),
		stop:       make(chan struct{}),
		ctx:        ctx,
		cancel:     cancel,
		done:       make(chan struct{}),
	}
	go r.loop()
	return r, nil
}

// Stop halts the sender immediately; in-flight requests are canceled.
// Pending items are abandoned (a later resync from a new Replicator
// repairs the peer). Use Flush first for a graceful drain.
func (r *Replicator) Stop() {
	r.stopOnce.Do(func() {
		close(r.stop)
		r.cancel()
	})
	<-r.done
}

// Flush waits until the queue is empty and nothing is in flight (with
// the peer connected and no resync pending), or the timeout elapses.
// It reports whether the drain completed.
func (r *Replicator) Flush(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		r.mu.Lock()
		drained := len(r.queue) == 0 && !r.inflight && !r.needResync && r.connected
		r.mu.Unlock()
		if drained {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		select {
		case <-r.done:
			return false
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// EnqueueCheckpoint schedules a session checkpoint for replication,
// replacing any pending image of the same session.
func (r *Replicator) EnqueueCheckpoint(ck Checkpoint) {
	r.enqueue(&item{kind: itemCheckpoint, session: ck.Session, ck: ck})
}

// EnqueueRemove schedules a session removal (the session closed or
// migrated away here).
func (r *Replicator) EnqueueRemove(session string) {
	r.enqueue(&item{kind: itemRemove, session: session})
}

// EnqueueKnowledge schedules a knowledge-store snapshot, replacing any
// pending one.
func (r *Replicator) EnqueueKnowledge(snapshot []byte) {
	if snapshot == nil {
		return
	}
	r.enqueue(&item{kind: itemKnowledge, snapshot: snapshot})
}

func (r *Replicator) enqueue(it *item) {
	it.enqueued = time.Now()
	r.mu.Lock()
	if prev, ok := r.index[it.key()]; ok {
		// Coalesce in place: the newer image supersedes the pending
		// one, but the oldest unmet intent defines the lag.
		it.enqueued = prev.enqueued
		*prev = *it
		r.coalesced++
		r.mu.Unlock()
		return
	}
	if len(r.queue) >= r.cfg.QueueDepth {
		// Degrade gracefully: drop the oldest pending item and let the
		// next resync repair whatever it covered.
		victim := r.queue[0]
		r.queue = r.queue[1:]
		if r.index[victim.key()] == victim {
			delete(r.index, victim.key())
		}
		r.dropped++
		r.needResync = true
	}
	r.queue = append(r.queue, it)
	r.index[it.key()] = it
	r.mu.Unlock()
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// pop removes and returns the queue head, marking it in flight.
func (r *Replicator) pop() *item {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.queue) == 0 {
		return nil
	}
	it := r.queue[0]
	r.queue = r.queue[1:]
	if r.index[it.key()] == it {
		delete(r.index, it.key())
	}
	r.inflight = true
	return it
}

// pushFront requeues a failed item at the head unless a newer item for
// the same key was enqueued while it was in flight.
func (r *Replicator) pushFront(it *item) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inflight = false
	if _, ok := r.index[it.key()]; ok {
		return // superseded while in flight
	}
	r.queue = append([]*item{it}, r.queue...)
	r.index[it.key()] = it
}

// Stats returns a point-in-time view of the pipeline.
func (r *Replicator) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Stats{
		Queue:     len(r.queue),
		Sent:      r.sent,
		Dropped:   r.dropped,
		Coalesced: r.coalesced,
		Errors:    r.errors,
		Resyncs:   r.resyncs,
		Connected: r.connected,
	}
	n := r.lagN
	if n > lagWindow {
		n = lagWindow
	}
	if n > 0 {
		lats := make([]time.Duration, n)
		copy(lats, r.lag[:n])
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		// Same nearest-rank indexing as the server's latency gauges, so
		// the two quantiles are monotone at any sample count.
		st.LagP50 = lats[(n-1)/2]
		st.LagP99 = lats[(n-1)*99/100]
	}
	return st
}

// loop is the sender goroutine: resync when needed, then drain the
// queue in order, backing off (capped exponential, jittered, shared
// httpx policy) whenever the peer misbehaves.
func (r *Replicator) loop() {
	defer close(r.done)
	bo := httpx.Backoff{Min: r.cfg.MinBackoff, Max: r.cfg.MaxBackoff}
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		r.mu.Lock()
		resync := r.needResync
		r.mu.Unlock()
		if resync {
			if err := r.resync(); err != nil {
				r.noteError()
				if !bo.Sleep(r.stop) {
					return
				}
				continue
			}
			bo.Reset()
		}
		it := r.pop()
		if it == nil {
			select {
			case <-r.kick:
			case <-r.stop:
				return
			}
			continue
		}
		if err := r.send(it); err != nil {
			r.pushFront(it)
			r.noteError()
			if !bo.Sleep(r.stop) {
				return
			}
			continue
		}
		bo.Reset()
		r.noteSent(it)
	}
}

func (r *Replicator) noteError() {
	r.mu.Lock()
	r.errors++
	r.connected = false
	// Whatever the peer missed during the outage is repaired on
	// reconnect.
	r.needResync = true
	r.mu.Unlock()
}

func (r *Replicator) noteSent(it *item) {
	r.mu.Lock()
	r.inflight = false
	r.sent++
	r.connected = true
	if it.kind == itemCheckpoint {
		r.lag[r.lagN%lagWindow] = time.Since(it.enqueued)
		r.lagN++
	}
	r.mu.Unlock()
}

// send delivers one item to the peer. A 409 on a checkpoint means the
// peer serves the session itself and refused the image; a 404 on a
// removal or a knowledge snapshot means nothing to remove or no store
// to merge into (an asymmetric deployment). Both are settled, not
// retried.
func (r *Replicator) send(it *item) error {
	var err error
	switch it.kind {
	case itemCheckpoint:
		body := durable.EncodeCheckpoint(it.ck.Seq, it.ck.Snapshot, it.ck.Response)
		_, err = r.do("PUT", "/sessions/"+url.PathEscape(it.session), "application/x-lpp-checkpoint", body, http.StatusConflict)
	case itemRemove:
		_, err = r.do("DELETE", "/sessions/"+url.PathEscape(it.session), "", nil, http.StatusNotFound)
	default:
		_, err = r.do("PUT", "/knowledge", "application/x-lpp-knowledge", it.snapshot, http.StatusNotFound)
	}
	return err
}

// do issues one request and returns the answer's body; a 2xx answer or
// the settled status counts as delivered.
func (r *Replicator) do(method, path, contentType string, body []byte, settled int) ([]byte, error) {
	ctx, cancel := context.WithTimeout(r.ctx, r.cfg.Timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, r.cfg.Peer+path, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	// Read the whole body: a truncated response (connection torn
	// mid-reply) must count as a failed delivery, not a silent success.
	out, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return nil, fmt.Errorf("replica: %s %s: reading response: %w", method, path, rerr)
	}
	if resp.StatusCode != settled && (resp.StatusCode < 200 || resp.StatusCode >= 300) {
		return nil, fmt.Errorf("replica: %s %s: peer answered %s", method, path, resp.Status)
	}
	return out, nil
}

// resync is the catch-up path: ask the peer what it holds, then send
// everything stale or missing and delete everything orphaned. Every
// image is the session's full state, so resync is idempotent and safe
// to interleave with queued sends (the receiver ignores regressions).
func (r *Replicator) resync() error {
	body, err := r.do("GET", "/status", "", nil, 0)
	if err != nil {
		return err
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("replica: status: %w", err)
	}
	local := r.cfg.Source()
	seen := make(map[string]bool, len(local))
	for _, ck := range local {
		seen[ck.Session] = true
		if ck.Seq == 0 {
			continue // session exists but has no checkpoint yet
		}
		if st.Sessions[ck.Session] == ck.Seq {
			continue // peer already current
		}
		if err := r.send(&item{kind: itemCheckpoint, session: ck.Session, ck: ck}); err != nil {
			return err
		}
	}
	for id := range st.Sessions {
		if !seen[id] {
			if err := r.send(&item{kind: itemRemove, session: id}); err != nil {
				return err
			}
		}
	}
	if r.cfg.Knowledge != nil {
		if snap := r.cfg.Knowledge(); snap != nil {
			if err := r.send(&item{kind: itemKnowledge, snapshot: snap}); err != nil {
				return err
			}
		}
	}
	r.mu.Lock()
	r.resyncs++
	r.needResync = false
	r.connected = true
	r.mu.Unlock()
	return nil
}
