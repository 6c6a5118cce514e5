package cluster

import (
	"net/http"
	"sync"
	"time"
)

// Health tracks per-node liveness by polling each member's /readyz.
// The router consults it through Alive so chunks stop routing to a
// node the moment a poll (or a failed forward, via MarkDown) says it
// is gone, rather than waiting out a full client timeout per request.
type Health struct {
	client   *http.Client
	interval time.Duration

	mu    sync.Mutex
	state map[string]bool

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewHealth starts a poller over the given node base URLs. Nodes start
// alive (optimistic: the first real failure marks them down) and are
// re-probed every interval (<=0 means 500ms).
func NewHealth(nodes []string, client *http.Client, interval time.Duration) *Health {
	if client == nil {
		client = &http.Client{Timeout: 2 * time.Second}
	}
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	h := &Health{
		client:   client,
		interval: interval,
		state:    make(map[string]bool, len(nodes)),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, n := range nodes {
		h.state[n] = true
	}
	go h.loop()
	return h
}

// Alive reports whether node passed its last /readyz probe. Unknown
// nodes are dead: the ring never routes to a node health isn't
// watching.
func (h *Health) Alive(node string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state[node]
}

// MarkDown records an observed failure (e.g. a connection refused on a
// forward) without waiting for the next poll. The poller revives the
// node when /readyz answers again.
func (h *Health) MarkDown(node string) {
	h.mu.Lock()
	if _, ok := h.state[node]; ok {
		h.state[node] = false
	}
	h.mu.Unlock()
}

// Snapshot returns the current liveness map (copy).
func (h *Health) Snapshot() map[string]bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]bool, len(h.state))
	for n, up := range h.state {
		out[n] = up
	}
	return out
}

// Close stops the poller.
func (h *Health) Close() {
	h.once.Do(func() { close(h.stop) })
	<-h.done
}

func (h *Health) loop() {
	defer close(h.done)
	t := time.NewTicker(h.interval)
	defer t.Stop()
	h.pollAll()
	for {
		select {
		case <-h.stop:
			return
		case <-t.C:
			h.pollAll()
		}
	}
}

func (h *Health) pollAll() {
	h.mu.Lock()
	nodes := make([]string, 0, len(h.state))
	for n := range h.state {
		nodes = append(nodes, n)
	}
	h.mu.Unlock()
	for _, n := range nodes {
		up := h.probe(n)
		h.mu.Lock()
		h.state[n] = up
		h.mu.Unlock()
	}
}

// probe asks node's /readyz; only a 200 counts. /readyz (not /healthz)
// is the gate so a node that is up but still recovering or already
// draining stays out of the ring.
func (h *Health) probe(node string) bool {
	resp, err := h.client.Get(node + "/readyz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
