package cluster

// The routed-cluster chaos suite: nine paper workloads streamed at a
// 3-node cluster through the router, with a random node killed
// mid-ingest and one live migration forced under load. The client sees
// only the router address the whole time. The bar is the same
// byte-parity contract the single-node chaos and 2-node failover
// suites enforce: every acknowledged response, the consumer state, and
// the final flush must be identical to an uninterrupted single-node
// run.

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"testing"
	"time"

	"lpp/internal/httpx"
	"lpp/internal/online"
	"lpp/internal/phase"
	"lpp/internal/server"
	"lpp/internal/trace"
	"lpp/internal/workload"
)

// collector materializes a workload's trace.
type collector struct{ events []trace.Event }

func (c *collector) Block(id trace.BlockID, instrs int) {
	c.events = append(c.events, trace.Event{Kind: trace.EventBlock, Block: id, Instrs: instrs})
}
func (c *collector) Access(addr trace.Addr) {
	c.events = append(c.events, trace.Event{Kind: trace.EventAccess, Addr: addr})
}

func encodeChunk(t *testing.T, events []trace.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, ev := range events {
		ev.Feed(w)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func chunkBounds(n, count int) [][2]int {
	var out [][2]int
	size := n / count
	if size == 0 {
		size = 1
	}
	for off := 0; off < n; off += size {
		end := off + size
		if end > n {
			end = n
		}
		out = append(out, [2]int{off, end})
	}
	return out
}

// testNode is one in-process lppserve node on a real loopback
// listener, reachable the way the router reaches production nodes.
type testNode struct {
	srv  *server.Server
	base string
	hs   *http.Server
	ln   net.Listener
}

// startTestNode listens first so the node can advertise its real URL.
func startTestNode(t *testing.T, cfg server.Config) *testNode {
	t.Helper()
	return startCluster(t, 1, func(int) server.Config { return cfg }, false)[0]
}

// startCluster starts n durable nodes on loopback listeners, node i
// configured by cfg(i). With replicate, each node ships checkpoints to
// every session's ring successor — the member the router walks to when
// the owner dies — exactly as lppserve members given -nodes do.
func startCluster(t *testing.T, n int, cfg func(i int) server.Config, replicate bool) []*testNode {
	t.Helper()
	lns := make([]net.Listener, n)
	bases := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], bases[i] = ln, "http://"+ln.Addr().String()
	}
	ring, err := New(bases, DefaultVnodes)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*testNode, n)
	for i, ln := range lns {
		c := cfg(i)
		self := bases[i]
		c.Advertise = self
		if replicate {
			c.Successor = func(id string) string {
				return ring.OwnerWith(id, func(m string) bool { return m != self })
			}
		}
		srv, err := server.New(c)
		if err != nil {
			ln.Close()
			t.Fatal(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		node := &testNode{srv: srv, base: self, hs: hs, ln: ln}
		t.Cleanup(func() {
			node.hs.Close()
			node.srv.Close()
		})
		nodes[i] = node
	}
	return nodes
}

// kill is node death with no drain: the process state vanishes and new
// connections are refused.
func (n *testNode) kill() {
	n.hs.Close()
	n.srv.Kill()
}

func startRouter(t *testing.T, nodes []string) (*Router, *Health, string) {
	t.Helper()
	r, err := New(nodes, DefaultVnodes)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHealth(nodes, &http.Client{Timeout: 2 * time.Second}, 50*time.Millisecond)
	rt := NewRouter(r, h, &http.Client{Timeout: 30 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: rt}
	go hs.Serve(ln)
	t.Cleanup(func() {
		hs.Close()
		h.Close()
	})
	return rt, h, "http://" + ln.Addr().String()
}

// get fetches a 200 body from base+path.
func get(t *testing.T, client *http.Client, base, path string) []byte {
	t.Helper()
	resp, err := client.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, body)
	}
	return body
}

func del(t *testing.T, client *http.Client, base, path string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("DELETE %s: %v", path, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE %s: %d: %s", path, resp.StatusCode, body)
	}
	return body
}

func TestRoutedClusterChaosParityWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("nine-workload routed-cluster sweep is seconds-long; skipped in -short")
	}
	cases := []struct {
		name          string
		params        workload.Params
		keepIrregular bool
	}{
		{"fft", workload.Params{N: 512, Steps: 6, Seed: 1}, false},
		{"applu", workload.Params{N: 14, Steps: 5, Seed: 1}, false},
		{"compress", workload.Params{N: 8192, Steps: 5, Seed: 1}, false},
		{"gcc", workload.Params{N: 60, Steps: 20, Seed: 1}, true},
		{"tomcatv", workload.Params{N: 48, Steps: 6, Seed: 1}, false},
		{"swim", workload.Params{N: 48, Steps: 6, Seed: 1}, false},
		{"vortex", workload.Params{N: 1 << 12, Steps: 6, Seed: 1}, true},
		{"mesh", workload.Params{N: 2048, Steps: 6, Seed: 1}, false},
		{"moldyn", workload.Params{N: 200, Steps: 6, Seed: 1}, false},
	}
	// Fixed seed: which node dies and where is arbitrary but
	// reproducible.
	rng := rand.New(rand.NewSource(20260808))
	const chainSpec = "predictor,cacheresize"
	consumers := func() *phase.Chain {
		ch, err := phase.ParseChain(chainSpec)
		if err != nil {
			panic(err)
		}
		return ch
	}
	const contentType = "application/x-lpp-trace"

	for _, c := range cases {
		c := c
		killOwner := rng.Intn(2) == 0
		t.Run(c.name, func(t *testing.T) {
			spec, err := workload.ByName(c.name)
			if err != nil {
				t.Fatal(err)
			}
			var col collector
			spec.Make(c.params).Run(&col)
			dcfg := online.Config{KeepIrregular: c.keepIrregular}
			bounds := chunkBounds(len(col.events), 10)
			if len(bounds) < 6 {
				t.Fatalf("%s: only %d chunks", c.name, len(bounds))
			}
			chunks := make([][]byte, len(bounds))
			for i, b := range bounds {
				chunks[i] = encodeChunk(t, col.events[b[0]:b[1]])
			}
			// Chaos points: the kill strictly before the migration, and
			// at least one chunk between and after, so every transition
			// carries live traffic.
			killChunk := 1 + rng.Intn(len(bounds)-4)
			migrateChunk := killChunk + 1 + rng.Intn(len(bounds)-killChunk-2)
			id := c.name

			client := &http.Client{Timeout: 30 * time.Second}

			// Reference: the same chunks against one uninterrupted node,
			// over real HTTP like the routed run.
			refNode := startTestNode(t, server.Config{
				Detector: dcfg, DataDir: t.TempDir(), CheckpointEvery: 3,
				Consumers: consumers,
			})
			reference := make([][]byte, len(chunks))
			for i, body := range chunks {
				var rc httpx.RetryCounts
				resp, err := httpx.PostChunk(client, refNode.base+"/v1/sessions/"+id+"/events",
					uint64(i+1), body, contentType, &rc)
				if err != nil {
					t.Fatalf("reference chunk %d: %v", i+1, err)
				}
				reference[i], _ = io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("reference chunk %d: %d: %s", i+1, resp.StatusCode, reference[i])
				}
			}
			refConsumers := get(t, client, refNode.base, "/v1/sessions/"+id+"/consumers")
			refFinal := del(t, client, refNode.base, "/v1/sessions/"+id)

			// The routed cluster: three durable nodes behind one router,
			// each replicating to its sessions' ring successors.
			nodes := startCluster(t, 3, func(int) server.Config {
				return server.Config{
					Detector: dcfg, DataDir: t.TempDir(), CheckpointEvery: 3,
					Consumers: consumers,
				}
			}, true)
			bases := make([]string, len(nodes))
			for i, n := range nodes {
				bases[i] = n.base
			}
			rt, _, routerBase := startRouter(t, bases)

			byBase := make(map[string]*testNode, len(nodes))
			for _, n := range nodes {
				byBase[n.base] = n
			}
			killed := ""
			doKill := func() {
				victim := rt.Owner(id)
				if !killOwner {
					// "kill any node": sometimes the victim is a bystander
					// — the session must not care.
					others := make([]string, 0, 2)
					for _, b := range bases {
						if b != victim {
							others = append(others, b)
						}
					}
					victim = others[rng.Intn(len(others))]
				}
				byBase[victim].kill()
				killed = victim
			}
			doMigrate := func() {
				source := rt.Owner(id)
				target := ""
				for _, b := range bases {
					if b != source && b != killed {
						target = b
						break
					}
				}
				if target == "" {
					t.Fatal("no migration target available")
				}
				resp, err := client.Post(routerBase+"/v1/cluster/migrate?session="+id+"&target="+target, "", nil)
				if err != nil {
					t.Fatalf("migrate: %v", err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("migrate: %d: %s", resp.StatusCode, body)
				}
				if got := rt.Owner(id); got != target {
					t.Fatalf("owner after migration = %s, want %s", got, target)
				}
			}

			// The client: chunks through the router only, riding 409
			// X-Lpp-Want-Seq rewinds exactly as it would against a single
			// node that restarted.
			acked := make([][]byte, len(chunks))
			i, rewinds, migrated := 0, 0, false
			for i < len(chunks) {
				if killed == "" && i == killChunk {
					doKill()
				} else if killed != "" && !migrated && i == migrateChunk {
					doMigrate()
					migrated = true
				}
				var rc httpx.RetryCounts
				resp, err := httpx.PostChunk(client, routerBase+"/v1/sessions/"+id+"/events",
					uint64(i+1), chunks[i], contentType, &rc)
				if err != nil {
					t.Fatalf("chunk %d via router: %v", i+1, err)
				}
				if resp.StatusCode == http.StatusConflict {
					want, perr := strconv.ParseUint(resp.Header.Get("X-Lpp-Want-Seq"), 10, 64)
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if perr != nil || want == 0 || want > uint64(i+1) {
						t.Fatalf("409 without usable X-Lpp-Want-Seq (chunk %d)", i+1)
					}
					rewinds++
					if rewinds > 2*len(chunks) {
						t.Fatal("rewind loop is not converging")
					}
					i = int(want) - 1
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("chunk %d via router: %d: %s", i+1, resp.StatusCode, body)
				}
				// Byte-parity with the uninterrupted run — on first ack
				// and on every post-failover replay of an already-acked
				// chunk. Any divergence means acknowledged events leaked.
				if !bytes.Equal(body, reference[i]) {
					t.Fatalf("chunk %d response diverges from the uninterrupted run", i+1)
				}
				if acked[i] != nil && !bytes.Equal(body, acked[i]) {
					t.Fatalf("chunk %d replayed after failover diverges from its acknowledged response", i+1)
				}
				acked[i] = body
				i++
			}
			for j, body := range acked {
				if body == nil {
					t.Fatalf("chunk %d never acknowledged", j+1)
				}
			}

			// Recovered consumer state and the final flush must match the
			// uninterrupted run byte for byte, fetched through the router.
			gotConsumers := get(t, client, routerBase, "/v1/sessions/"+id+"/consumers")
			if !bytes.Equal(gotConsumers, refConsumers) {
				t.Errorf("consumer state diverges after chaos:\n got %s\nwant %s", gotConsumers, refConsumers)
			}
			gotFinal := del(t, client, routerBase, "/v1/sessions/"+id)
			if !bytes.Equal(gotFinal, refFinal) {
				t.Errorf("final flush diverges after chaos:\n got %s\nwant %s", gotFinal, refFinal)
			}
		})
	}
}
