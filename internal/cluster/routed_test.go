package cluster

// The routed-cluster chaos suite: nine paper workloads streamed at a
// 3-node cluster through the router, one session per case and then all
// nine at once, with a node killed mid-ingest and one live migration
// forced under load. The client sees only the router address the whole
// time. The bar is the same byte-parity contract the single-node chaos
// and 2-node failover suites enforce: every acknowledged response, the
// consumer state, and the final flush must be identical to an
// uninterrupted single-node run.

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"testing"
	"time"

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

// chaosSession is one client stream of a chaos case: its chunks, the
// uninterrupted run's answers, and the client's progress through the
// router.
type chaosSession struct {
	id           string
	chunks       [][]byte
	reference    [][]byte
	refConsumers []byte
	refFinal     []byte
	acked        [][]byte
	next         int // index of the next chunk to send
}

func TestRoutedClusterChaosParityWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("nine-workload routed-cluster sweep is seconds-long; skipped in -short")
	}
	workloads := []struct {
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
	// One single-session case per workload, then the multi-session
	// case: all nine streamed at once (on one detector config, since
	// the nodes share it), so the killed node takes several sessions
	// with it while the others keep streaming.
	type chaosCase struct {
		name      string
		workloads []int // indexes into workloads, one session each
		detector  online.Config
	}
	var cases []chaosCase
	var all []int
	for i, w := range workloads {
		cases = append(cases, chaosCase{w.name, []int{i}, online.Config{KeepIrregular: w.keepIrregular}})
		all = append(all, i)
	}
	cases = append(cases, chaosCase{"multi-session", all, online.Config{}})

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
			sessions := make([]*chaosSession, len(c.workloads))
			rounds := 0 // chunks in the shortest session
			for i, wi := range c.workloads {
				w := workloads[wi]
				spec, err := workload.ByName(w.name)
				if err != nil {
					t.Fatal(err)
				}
				var col collector
				spec.Make(w.params).Run(&col)
				bounds := chunkBounds(len(col.events), 10)
				if len(bounds) < 10 {
					t.Fatalf("%s: only %d chunks", w.name, len(bounds))
				}
				s := &chaosSession{id: w.name, acked: make([][]byte, len(bounds))}
				for _, b := range bounds {
					s.chunks = append(s.chunks, encodeChunk(t, col.events[b[0]:b[1]]))
				}
				sessions[i] = s
				if rounds == 0 || len(bounds) < rounds {
					rounds = len(bounds)
				}
			}
			// Chaos points: the kill strictly before the migration, and
			// at least one round between and after, so every transition
			// carries live traffic. The multi-session case kills between
			// the checkpoints at chunks 3 and 6, so every session on the
			// victim has an unreplicated tail to rewind over.
			killRound, migrateRound := 4, 7
			if len(sessions) == 1 {
				killRound = 1 + rng.Intn(rounds-4)
				migrateRound = killRound + 1 + rng.Intn(rounds-killRound-2)
			}

			client := &http.Client{Timeout: 30 * time.Second}
			nodeConfig := func(int) server.Config {
				return server.Config{
					Detector: c.detector, DataDir: t.TempDir(), CheckpointEvery: 3,
					Consumers: consumers,
				}
			}

			// Reference: the same chunks against one uninterrupted node,
			// over real HTTP like the routed run.
			refNode := startTestNode(t, nodeConfig(0))
			for _, s := range sessions {
				s.reference = make([][]byte, len(s.chunks))
				for i, body := range s.chunks {
					resp, out := postVia(t, client, refNode.base, s.id, uint64(i+1), body)
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("%s reference chunk %d: %d: %s", s.id, i+1, resp.StatusCode, out)
					}
					s.reference[i] = out
				}
				s.refConsumers = get(t, client, refNode.base, "/v1/sessions/"+s.id+"/consumers")
				s.refFinal = del(t, client, refNode.base, "/v1/sessions/"+s.id)
			}

			// The routed cluster: three durable nodes behind one router,
			// each replicating to its sessions' ring successors.
			nodes := startCluster(t, 3, nodeConfig, true)
			bases := make([]string, len(nodes))
			byBase := make(map[string]*testNode, len(nodes))
			for i, n := range nodes {
				bases[i] = n.base
				byBase[n.base] = n
			}
			rt, _, routerBase := startRouter(t, bases)

			killed, victimOwned := "", 0
			doKill := func() {
				owned := make(map[string]int, len(bases))
				for _, s := range sessions {
					owned[rt.Owner(s.id)]++
				}
				victim := rt.Owner(sessions[0].id)
				switch {
				case len(sessions) > 1:
					// The busiest node: the worst-case reroute.
					for _, b := range bases {
						if owned[b] > owned[victim] {
							victim = b
						}
					}
					if owned[victim] < 2 {
						t.Fatalf("victim owns %d sessions, want at least 2", owned[victim])
					}
				case !killOwner:
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
				killed, victimOwned = victim, owned[victim]
			}
			doMigrate := func() {
				for _, s := range sessions {
					source := rt.Owner(s.id)
					if source == killed || s.next == len(s.chunks) {
						continue
					}
					for _, target := range bases {
						if target == source || target == killed {
							continue
						}
						resp, err := client.Post(routerBase+"/v1/cluster/migrate?session="+s.id+"&target="+target, "", nil)
						if err != nil {
							t.Fatalf("migrate %s: %v", s.id, err)
						}
						body, _ := io.ReadAll(resp.Body)
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							t.Fatalf("migrate %s: %d: %s", s.id, resp.StatusCode, body)
						}
						if got := rt.Owner(s.id); got != target {
							t.Fatalf("%s owner after migration = %s, want %s", s.id, got, target)
						}
						return
					}
				}
				t.Fatal("no live session and target to migrate")
			}

			// The client: one loop sends each live session its next chunk
			// per round, through the router only, riding 409
			// X-Lpp-Want-Seq rewinds exactly as it would against a single
			// node that restarted.
			rewinds := 0
			for round := 0; ; round++ {
				if round == killRound {
					doKill()
				} else if round == migrateRound {
					doMigrate()
				}
				active := 0
				for _, s := range sessions {
					if s.next == len(s.chunks) {
						continue
					}
					active++
					i := s.next
					resp, body := postVia(t, client, routerBase, s.id, uint64(i+1), s.chunks[i])
					if resp.StatusCode == http.StatusConflict {
						want, perr := strconv.ParseUint(resp.Header.Get("X-Lpp-Want-Seq"), 10, 64)
						if perr != nil || want == 0 || want > uint64(i+1) {
							t.Fatalf("%s: 409 without usable X-Lpp-Want-Seq (chunk %d)", s.id, i+1)
						}
						rewinds++
						if rewinds > 2*len(sessions)*rounds {
							t.Fatal("rewind loop is not converging")
						}
						s.next = int(want) - 1
						continue
					}
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("%s chunk %d via router: %d: %s", s.id, i+1, resp.StatusCode, body)
					}
					// Byte-parity with the uninterrupted run — on first ack
					// and on every post-failover replay of an already-acked
					// chunk. Any divergence means acknowledged events leaked.
					if !bytes.Equal(body, s.reference[i]) {
						t.Fatalf("%s chunk %d response diverges from the uninterrupted run", s.id, i+1)
					}
					if s.acked[i] != nil && !bytes.Equal(body, s.acked[i]) {
						t.Fatalf("%s chunk %d replayed after failover diverges from its acknowledged response", s.id, i+1)
					}
					s.acked[i] = body
					s.next++
				}
				if active == 0 {
					break
				}
			}
			if len(sessions) > 1 && rewinds == 0 {
				t.Error("no session rewound after the kill: failover replayed nothing")
			}
			t.Logf("killed the owner of %d of %d sessions at round %d; %d rewinds", victimOwned, len(sessions), killRound, rewinds)

			// Recovered consumer state and the final flush must match the
			// uninterrupted run byte for byte, fetched through the router.
			for _, s := range sessions {
				gotConsumers := get(t, client, routerBase, "/v1/sessions/"+s.id+"/consumers")
				if !bytes.Equal(gotConsumers, s.refConsumers) {
					t.Errorf("%s consumer state diverges after chaos:\n got %s\nwant %s", s.id, gotConsumers, s.refConsumers)
				}
				gotFinal := del(t, client, routerBase, "/v1/sessions/"+s.id)
				if !bytes.Equal(gotFinal, s.refFinal) {
					t.Errorf("%s final flush diverges after chaos:\n got %s\nwant %s", s.id, gotFinal, s.refFinal)
				}
			}
		})
	}
}
