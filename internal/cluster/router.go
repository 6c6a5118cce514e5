package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"lpp/internal/httpx"
)

// maxRouteBody caps the buffered request body. The router must buffer
// (a forward can be retried against a different node), so an unbounded
// body would let one client hold the router's memory hostage.
const maxRouteBody = 64 << 20

// routeAttempts bounds one request's forwarding loop across node
// deaths, ownership hops, and migration holds.
const routeAttempts = 10

// Router is the cluster's single client-facing address: an
// http.Handler that places each session on the ring, forwards the
// request to the owning node, and absorbs the cluster's churn so
// clients never re-point themselves. Specifically it
//
//   - re-resolves ownership when a node dies (health-gated ring walk),
//     so the next chunk lands on the fallback owner and the session's
//     seq protocol — the 409 X-Lpp-Want-Seq rewind — tells the client
//     exactly where to resume;
//   - follows 421 X-Lpp-Owner answers (a session that migrated away)
//     and pins the session to its new home;
//   - holds requests that hit a mid-migration 503, waiting out the
//     server's retry hint instead of bouncing the failure to the
//     client.
//
// Everything else — 409 gaps, 429 backpressure, 4xx errors — passes
// through untouched: those statuses pace the client, and hiding them
// would break the ingest protocol.
type Router struct {
	ring   *Ring
	health *Health
	client *http.Client

	// pins maps session id → owner base URL learned from 421 answers
	// and completed migrations; it overrides ring placement until the
	// pinned node dies.
	pins sync.Map
}

// NewRouter builds a router over the ring, consulting health for
// liveness. A nil client gets a default with a generous timeout (a
// detector chunk on a loaded node can take a while).
func NewRouter(ring *Ring, health *Health, client *http.Client) *Router {
	if client == nil {
		client = &http.Client{Timeout: 60 * time.Second}
	}
	return &Router{ring: ring, health: health, client: client}
}

// Pin records that session id lives on owner (used by the migration
// orchestrator so the very next chunk goes to the new home without an
// extra 421 hop).
func (rt *Router) Pin(id, owner string) { rt.pins.Store(id, owner) }

// Owner resolves where session id currently routes.
func (rt *Router) Owner(id string) string {
	if v, ok := rt.pins.Load(id); ok {
		owner := v.(string)
		if rt.health.Alive(owner) {
			return owner
		}
		rt.pins.Delete(id)
	}
	return rt.ring.OwnerWith(id, rt.health.Alive)
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/v1/cluster/status" && r.Method == http.MethodGet:
		rt.handleStatus(w)
	case r.URL.Path == "/v1/cluster/migrate" && r.Method == http.MethodPost:
		rt.handleMigrate(w, r)
	case r.URL.Path == "/v1/sessions" && r.Method == http.MethodGet:
		rt.handleListing(w)
	case strings.HasPrefix(r.URL.Path, "/v1/sessions/"):
		rt.forward(w, r)
	case r.URL.Path == "/healthz":
		w.WriteHeader(http.StatusOK)
	case r.URL.Path == "/readyz":
		rt.handleReady(w)
	default:
		http.NotFound(w, r)
	}
}

// sessionID extracts the session from /v1/sessions/{id}[/...]. It cuts
// the escaped path, as the nodes' routes do, so an id holding an
// escaped '/' ("a%2Fb") places as "a/b" — the id the node and the
// migrate endpoint see — not as "a". An undecodable segment yields "".
func sessionID(r *http.Request) string {
	rest := strings.TrimPrefix(r.URL.EscapedPath(), "/v1/sessions/")
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	id, _ := url.PathUnescape(rest)
	return id
}

// forward proxies one session request to its owning node, riding out
// node death, migration holds, and ownership hops.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request) {
	id := sessionID(r)
	if id == "" {
		http.Error(w, "missing session id", http.StatusBadRequest)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRouteBody+1))
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) > maxRouteBody {
		http.Error(w, "body too large for router", http.StatusRequestEntityTooLarge)
		return
	}

	bo := httpx.Backoff{Min: 10 * time.Millisecond, Max: 500 * time.Millisecond}
	target := "" // explicit owner from a 421; empty means resolve
	for attempt := 0; attempt < routeAttempts; attempt++ {
		owner := target
		if owner == "" {
			owner = rt.Owner(id)
		}
		if owner == "" {
			http.Error(w, "no cluster node available", http.StatusServiceUnavailable)
			return
		}
		resp, err := rt.send(r, owner, body)
		if err != nil {
			// The owner is unreachable: mark it down and re-resolve. The
			// fallback owner's seq state may trail the client's — the 409
			// rewind protocol covers the gap.
			rt.health.MarkDown(owner)
			target = ""
			bo.Sleep(nil)
			continue
		}
		switch {
		case resp.StatusCode == http.StatusMisdirectedRequest:
			// The session moved; its old home says where.
			newOwner := resp.Header.Get("X-Lpp-Owner")
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if newOwner == "" || newOwner == owner {
				http.Error(w, "session not owned here and no forwarding owner", http.StatusBadGateway)
				return
			}
			rt.Pin(id, newOwner)
			target = newOwner
			continue
		case resp.StatusCode == http.StatusServiceUnavailable && httpx.RetryAfter(resp.Header, 2*time.Second) > 0:
			// Mid-migration (or draining) hold: wait the server's hint and
			// try again so the client never sees the handoff.
			hint := httpx.RetryAfter(resp.Header, 2*time.Second)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			time.Sleep(hint)
			target = ""
			continue
		default:
			copyResponse(w, resp)
			return
		}
	}
	http.Error(w, "routing failed: cluster unstable after retries", http.StatusBadGateway)
}

// send issues the forwarded request to owner.
func (rt *Router) send(r *http.Request, owner string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(r.Method, owner+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for _, h := range []string{"Content-Type", "X-Lpp-Seq", "Accept"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	return rt.client.Do(req)
}

// copyResponse relays the node's answer verbatim.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// handleListing merges GET /v1/sessions from every live node into one
// cluster-wide inventory.
func (rt *Router) handleListing(w http.ResponseWriter) {
	type nodeListing struct {
		Node     string          `json:"node"`
		Sessions json.RawMessage `json:"sessions"`
		Error    string          `json:"error,omitempty"`
	}
	var out []nodeListing
	for _, node := range rt.ring.Nodes() {
		if !rt.health.Alive(node) {
			out = append(out, nodeListing{Node: node, Error: "down"})
			continue
		}
		resp, err := rt.client.Get(node + "/v1/sessions")
		if err != nil {
			rt.health.MarkDown(node)
			out = append(out, nodeListing{Node: node, Error: err.Error()})
			continue
		}
		var body struct {
			Sessions json.RawMessage `json:"sessions"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if derr != nil || resp.StatusCode != http.StatusOK {
			out = append(out, nodeListing{Node: node, Error: fmt.Sprintf("status %d", resp.StatusCode)})
			continue
		}
		out = append(out, nodeListing{Node: node, Sessions: body.Sessions})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"nodes": out})
}

// handleStatus reports ring membership and liveness.
func (rt *Router) handleStatus(w http.ResponseWriter) {
	type nodeStatus struct {
		URL   string `json:"url"`
		Alive bool   `json:"alive"`
	}
	live := rt.health.Snapshot()
	var nodes []nodeStatus
	for _, n := range rt.ring.Nodes() {
		nodes = append(nodes, nodeStatus{URL: n, Alive: live[n]})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"nodes":  nodes,
		"vnodes": rt.ring.vnodes,
	})
}

// handleReady answers 200 while at least one node can take traffic.
func (rt *Router) handleReady(w http.ResponseWriter) {
	for _, n := range rt.ring.Nodes() {
		if rt.health.Alive(n) {
			w.WriteHeader(http.StatusOK)
			return
		}
	}
	http.Error(w, "no live nodes", http.StatusServiceUnavailable)
}

// handleMigrate drains one session to an explicit target node:
// POST /v1/cluster/migrate?session=ID&target=URL.
func (rt *Router) handleMigrate(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("session")
	target := r.URL.Query().Get("target")
	if id == "" || target == "" {
		http.Error(w, "need session and target query parameters", http.StatusBadRequest)
		return
	}
	found := false
	for _, n := range rt.ring.Nodes() {
		if n == target {
			found = true
			break
		}
	}
	if !found {
		http.Error(w, "target is not a cluster member", http.StatusBadRequest)
		return
	}
	source := rt.Owner(id)
	if source == "" {
		http.Error(w, "no cluster node available", http.StatusServiceUnavailable)
		return
	}
	if source == target {
		http.Error(w, "session already on target", http.StatusConflict)
		return
	}
	rep, err := Migrate(rt.client, id, source, target)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	// Pin before answering: the next forwarded chunk goes straight to
	// the new home instead of paying a 421 hop.
	rt.Pin(id, target)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rep)
}
