package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"lpp/internal/httpx"
	"lpp/internal/online"
	"lpp/internal/replica"
	"lpp/internal/server"
	"lpp/internal/workload"
)

// postVia sends chunk seq of session id through the router.
func postVia(t *testing.T, client *http.Client, routerBase, id string, seq uint64, body []byte) (*http.Response, []byte) {
	t.Helper()
	var rc httpx.RetryCounts
	resp, err := httpx.PostChunk(client, routerBase+"/v1/sessions/"+url.PathEscape(id)+"/events",
		seq, body, "application/x-lpp-trace", &rc)
	if err != nil {
		t.Fatalf("chunk %d of %q via router: %v", seq, id, err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, out
}

// TestRoutedFailoverResumesFromReplica: with replication wired, the
// router's fallback owner is the dead owner's ring successor, which
// adopts the image it holds. The client's first chunk after the kill is
// answered 409 with X-Lpp-Want-Seq one past the last replicated
// checkpoint — not 1 — and the session carries on from there.
func TestRoutedFailoverResumesFromReplica(t *testing.T) {
	spec, err := workload.ByName("tomcatv")
	if err != nil {
		t.Fatal(err)
	}
	var col collector
	spec.Make(workload.Params{N: 48, Steps: 6, Seed: 1}).Run(&col)
	bounds := chunkBounds(len(col.events), 10)
	chunks := make([][]byte, len(bounds))
	for i, b := range bounds {
		chunks[i] = encodeChunk(t, col.events[b[0]:b[1]])
	}
	nodes := startCluster(t, 3, func(int) server.Config {
		return server.Config{Detector: online.Config{}, DataDir: t.TempDir(), CheckpointEvery: 3}
	}, true)
	bases := make([]string, len(nodes))
	byBase := make(map[string]*testNode, len(nodes))
	for i, n := range nodes {
		bases[i] = n.base
		byBase[n.base] = n
	}
	rt, _, routerBase := startRouter(t, bases)
	client := &http.Client{Timeout: 30 * time.Second}
	const id = "resume"

	const sent = 5
	for i := 0; i < sent; i++ {
		if resp, body := postVia(t, client, routerBase, id, uint64(i+1), chunks[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("chunk %d: %d: %s", i+1, resp.StatusCode, body)
		}
	}
	owner := rt.Owner(id)
	if !byBase[owner].srv.FlushReplication(10 * time.Second) {
		t.Fatal("owner's replication did not drain")
	}
	successor := rt.ring.OwnerWith(id, func(n string) bool { return n != owner })
	var st replica.Status
	if err := json.Unmarshal(get(t, client, successor, "/v1/replica/"+url.PathEscape(owner)+"/status"), &st); err != nil {
		t.Fatal(err)
	}
	replicated := st.Sessions[id]
	if replicated == 0 {
		t.Fatalf("successor holds no image of %q: %+v", id, st)
	}
	byBase[owner].kill()

	resp, body := postVia(t, client, routerBase, id, sent+1, chunks[sent])
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("first chunk after the kill: %d: %s", resp.StatusCode, body)
	}
	want, err := strconv.ParseUint(resp.Header.Get("X-Lpp-Want-Seq"), 10, 64)
	if err != nil || want != replicated+1 {
		t.Fatalf("X-Lpp-Want-Seq = %q, want %d (last replicated checkpoint + 1)",
			resp.Header.Get("X-Lpp-Want-Seq"), replicated+1)
	}
	if got := rt.Owner(id); got != successor {
		t.Fatalf("router's fallback owner %s is not the ring successor %s", got, successor)
	}
	for i := int(want) - 1; i < len(chunks); i++ {
		if resp, body := postVia(t, client, routerBase, id, uint64(i+1), chunks[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("chunk %d after failover: %d: %s", i+1, resp.StatusCode, body)
		}
	}
}

// TestRouterEscapedSessionIDs forwards and migrates ids that need
// escaping. The router must place each by the id the nodes see — the
// unescaped mux segment — and Migrate must escape it on the wire.
func TestRouterEscapedSessionIDs(t *testing.T) {
	events := syntheticChunk(t)
	nodes := startCluster(t, 3, func(int) server.Config {
		return server.Config{DataDir: t.TempDir()}
	}, false)
	bases := make([]string, len(nodes))
	byBase := make(map[string]*testNode, len(nodes))
	for i, n := range nodes {
		bases[i] = n.base
		byBase[n.base] = n
	}
	rt, _, routerBase := startRouter(t, bases)
	client := &http.Client{Timeout: 30 * time.Second}
	// Ring placement depends on the nodes' ephemeral URLs, so add a
	// slashed id whose first segment alone is owned by another node:
	// placing by the cut segment then always picks the wrong node.
	slashed := "a/b"
	for i := 0; rt.ring.Owner(strings.Split(slashed, "/")[0]) == rt.ring.Owner(slashed); i++ {
		slashed = fmt.Sprintf("a%d/b", i)
	}
	for _, id := range []string{"a/b", "x y", "p%q", slashed} {
		if resp, body := postVia(t, client, routerBase, id, 1, events); resp.StatusCode != http.StatusOK {
			t.Fatalf("%q chunk 1: %d: %s", id, resp.StatusCode, body)
		}
		owner := rt.Owner(id)
		if st, _ := byBase[owner].srv.SessionState(id); st != server.StateLocal {
			t.Fatalf("%q: ring owner %s holds it as %s; the router placed it elsewhere", id, owner, st)
		}
		target := ""
		for _, b := range bases {
			if b != owner {
				target = b
				break
			}
		}
		resp, err := client.Post(routerBase+"/v1/cluster/migrate?session="+url.QueryEscape(id)+
			"&target="+url.QueryEscape(target), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q migrate: %d: %s", id, resp.StatusCode, body)
		}
		if st, _ := byBase[target].srv.SessionState(id); st != server.StateLocal {
			t.Fatalf("%q after migration: target holds it as %s", id, st)
		}
		if st, _ := byBase[owner].srv.SessionState(id); st != server.StateRemote {
			t.Fatalf("%q after migration: source holds it as %s", id, st)
		}
		if resp, body := postVia(t, client, routerBase, id, 2, events); resp.StatusCode != http.StatusOK {
			t.Fatalf("%q chunk 2 after migration: %d: %s", id, resp.StatusCode, body)
		}
		del(t, client, routerBase, "/v1/sessions/"+url.PathEscape(id))
	}
}

// syntheticChunk is one small encoded chunk of the fft workload.
func syntheticChunk(t *testing.T) []byte {
	t.Helper()
	spec, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	var col collector
	spec.Make(workload.Params{N: 64, Steps: 1, Seed: 1}).Run(&col)
	return encodeChunk(t, col.events[:min(len(col.events), 2000)])
}
