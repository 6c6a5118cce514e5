package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"lpp/internal/cluster"
	"lpp/internal/durable"
	"lpp/internal/httpx"
	"lpp/internal/knowledge"
	"lpp/internal/phase"
	"lpp/internal/server"
	"lpp/internal/workload"
)

// streamSpec is one streaming workload: which kernels' traces the
// sessions replay, how they are chunked, and what serves them.
type streamSpec struct {
	programs []programSpec
	chunkLen int
	formats  []string // chunk i goes out in formats[(i+rotation)%len]
	// nodes is 0 for one ephemeral in-process server, or the number of
	// durable nodes behind an in-process cluster.Router.
	nodes        int
	consumers    string // every session's phase chain ("" for none)
	knowledge    bool   // each node keeps a persisted knowledge store
	migrateEvery int    // every Nth session live-migrates mid-stream (0: none)
	clients      int
}

// programSpec sizes one kernel's trace from its Train input. The
// kernels keep the paper's data seeds: --seed moves their addresses
// (addrOffset), so quality metrics stay comparable across seeds.
type programSpec struct {
	name   string
	params func(train workload.Params) workload.Params
}

// trainParams keeps a kernel's Train input.
func trainParams(p workload.Params) workload.Params { return p }

// steps keeps a kernel's Train input with fewer outer steps, for
// shorter sessions.
func steps(n int) func(workload.Params) workload.Params {
	return func(p workload.Params) workload.Params {
		p.Steps = n
		return p
	}
}

// tinyParams shrinks a kernel for smoke checks.
func tinyParams(n, steps int) func(workload.Params) workload.Params {
	return func(p workload.Params) workload.Params {
		p.N, p.Steps = n, steps
		return p
	}
}

func columnarSpec(tiny bool) streamSpec {
	s := streamSpec{
		programs: []programSpec{{"tomcatv", trainParams}, {"swim", trainParams}, {"applu", trainParams}},
		chunkLen: 4096,
		formats:  []string{formatV2},
		clients:  2,
	}
	if tiny {
		s.programs = []programSpec{{"tomcatv", tinyParams(24, 2)}, {"swim", tinyParams(24, 2)}, {"applu", tinyParams(8, 2)}}
		s.chunkLen = 512
	}
	return s
}

func routedSpec(tiny bool) streamSpec {
	s := streamSpec{
		programs: []programSpec{
			{"moldyn", trainParams}, {"fft", steps(3)}, {"mesh", steps(3)},
			{"compress", steps(2)}, {"vortex", steps(4)},
		},
		chunkLen:     1024,
		formats:      []string{formatV1, formatNDJSON, formatV2},
		nodes:        3,
		consumers:    "predictor:strict,cacheresize,dvfs,remap",
		knowledge:    true,
		migrateEvery: 4,
		clients:      2,
	}
	if tiny {
		s.programs = []programSpec{
			{"moldyn", tinyParams(100, 2)}, {"fft", tinyParams(256, 2)}, {"mesh", tinyParams(512, 2)},
			{"compress", tinyParams(4096, 1)}, {"vortex", tinyParams(1024, 2)},
		}
		s.chunkLen = 256
		s.migrateEvery = 2
	}
	return s
}

// service is the system under test for one pass: one server, or
// durable nodes behind a router. Clients talk only to base.
type service struct {
	base    string
	nodes   []string
	stores  []*knowledge.Store
	router  *cluster.Router
	closers []func()
}

func (s *service) stop() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// serve serves h on a new loopback listener until the service stops,
// then runs after (if any). build receives the listener's base URL
// first, since a node must know the URL it advertises.
func (s *service) serve(build func(base string) (http.Handler, func(), error)) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	base := "http://" + ln.Addr().String()
	h, after, err := build(base)
	if err != nil {
		ln.Close()
		return "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	s.closers = append(s.closers, func() {
		hs.Close()
		<-done
		if after != nil {
			after()
		}
	})
	return base, nil
}

// startService brings up the workload's service under dir. With a
// tracer, the router's forwards are recorded as spans, parented to the
// client span waiting on the same session.
func startService(spec streamSpec, dir string, tr *tracer) (*service, error) {
	svc := &service{}
	if spec.nodes == 0 {
		base, err := svc.serve(func(string) (http.Handler, func(), error) {
			srv, err := server.New(server.Config{})
			if err != nil {
				return nil, nil, err
			}
			return srv.Handler(), srv.Close, nil
		})
		svc.base = base
		return svc, err
	}
	if _, err := phase.ParseChain(spec.consumers); err != nil {
		return nil, err
	}
	for i := 0; i < spec.nodes; i++ {
		nodeDir := filepath.Join(dir, fmt.Sprintf("node-%d", i))
		base, err := svc.serve(func(base string) (http.Handler, func(), error) {
			cfg := server.Config{DataDir: filepath.Join(nodeDir, "data"), Advertise: base}
			if spec.consumers != "" {
				cfg.Consumers = func() *phase.Chain {
					c, _ := phase.ParseChain(spec.consumers) // validated above
					return c
				}
			}
			if spec.knowledge {
				ks, err := knowledge.Open(filepath.Join(nodeDir, "knowledge.lppk"), nil, knowledge.Config{})
				if err != nil {
					return nil, nil, err
				}
				cfg.Knowledge = ks
				svc.stores = append(svc.stores, ks)
			}
			srv, err := server.New(cfg)
			if err != nil {
				return nil, nil, err
			}
			return srv.Handler(), srv.Close, nil
		})
		if err != nil {
			svc.stop()
			return nil, err
		}
		svc.nodes = append(svc.nodes, base)
	}
	ring, err := cluster.New(svc.nodes, 0)
	if err != nil {
		svc.stop()
		return nil, err
	}
	health := cluster.NewHealth(svc.nodes, nil, 0)
	svc.closers = append(svc.closers, health.Close)
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 8}
	if tr != nil {
		rt = forwardSpans{next: rt, tr: tr}
	}
	svc.router = cluster.NewRouter(ring, health, &http.Client{Transport: rt, Timeout: 60 * time.Second})
	if svc.base, err = svc.serve(func(string) (http.Handler, func(), error) { return svc.router, nil, nil }); err != nil {
		svc.stop()
		return nil, err
	}
	return svc, nil
}

// forwardSpans times each request the router forwards to a node.
type forwardSpans struct {
	next http.RoundTripper
	tr   *tracer
}

func (f forwardSpans) RoundTrip(r *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := f.next.RoundTrip(r)
	t1 := time.Now()
	id := strings.TrimPrefix(r.URL.Path, "/v1/sessions/")
	id, _, _ = strings.Cut(id, "/")
	seq, _ := strconv.Atoi(r.Header.Get("X-Lpp-Seq"))
	f.tr.record("cluster.forward", f.tr.waiting(id), id, seq, t0, t1)
	return resp, err
}

// sessionRun is one client session as the client saw it.
type sessionRun struct {
	id     string
	prog   int
	owner  string // ring owner when the session started ("" single node)
	acked  int
	bodies []uint64
	stats  map[string]int64
	close  uint64
	closed bool
	broken bool // an operation failed; its outputs are not comparable
}

// passResult is one live pass over the service.
type passResult struct {
	rtts              []time.Duration
	acks              []ack
	closes            []time.Duration
	migrations        []time.Duration
	retries           httpx.RetryCounts
	attempted, failed int64
	sessions          []*sessionRun
	errors            []string
	start             time.Time
}

func (r *passResult) merge(o *passResult) {
	r.rtts = append(r.rtts, o.rtts...)
	r.acks = append(r.acks, o.acks...)
	r.closes = append(r.closes, o.closes...)
	r.migrations = append(r.migrations, o.migrations...)
	r.retries.Status429 += o.retries.Status429
	r.retries.Status5xx += o.retries.Status5xx
	r.retries.Conn += o.retries.Conn
	r.attempted += o.attempted
	r.failed += o.failed
	r.sessions = append(r.sessions, o.sessions...)
	r.errors = append(r.errors, o.errors...)
}

// livePass runs spec.clients closed-loop clients for the given time:
// each sends its next chunk only after the previous one is
// acknowledged. Client c runs sessions c, c+clients, ...; session k
// replays program k mod len(progs). At the deadline each client stops
// after its current chunk and closes its open session.
func livePass(spec streamSpec, progs []*program, svc *service, seed int64, prefix string, seconds float64, tr *tracer) *passResult {
	transport := &http.Transport{MaxIdleConnsPerHost: 2 * spec.clients}
	defer transport.CloseIdleConnections()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	results := make([]*passResult, spec.clients)
	var wg sync.WaitGroup
	for c := 0; c < spec.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &passResult{}
			results[c] = res
			client := &http.Client{Transport: transport, Timeout: 60 * time.Second}
			for k := c; time.Now().Before(deadline); k += spec.clients {
				s := &sessionRun{id: fmt.Sprintf("%s-%03d", prefix, k), prog: k % len(progs)}
				if svc.router != nil {
					s.owner = svc.router.Owner(s.id)
				}
				res.sessions = append(res.sessions, s)
				runSession(spec, progs[s.prog], svc, client, s, k, seed, deadline, res, tr)
			}
		}(c)
	}
	wg.Wait()
	out := &passResult{start: start}
	for _, r := range results {
		out.merge(r)
	}
	return out
}

// ack is one acknowledged chunk.
type ack struct {
	at     time.Time
	rtt    time.Duration
	events int
}

// windowed reports the pass's throughput and chunk-latency percentiles
// as medians over its one-second windows (by acknowledgement time), so
// a burst of host noise inside a few windows does not move them.
func (r *passResult) windowed(seconds float64) (eventsPerS, p50, p90 float64) {
	n := max(int(seconds), 1)
	width := time.Duration(seconds / float64(n) * float64(time.Second))
	events := make([]float64, n)
	rtts := make([][]time.Duration, n)
	for _, a := range r.acks {
		if w := int(a.at.Sub(r.start) / width); w < n {
			events[w] += float64(a.events)
			rtts[w] = append(rtts[w], a.rtt)
		}
	}
	var rates, p50s, p90s []float64
	for w := range rtts {
		if len(rtts[w]) == 0 {
			continue
		}
		rates = append(rates, events[w]/width.Seconds())
		p50s = append(p50s, percentileMs(rtts[w], 0.50))
		p90s = append(p90s, percentileMs(rtts[w], 0.90))
	}
	return median(rates), median(p50s), median(p90s)
}

// runSession streams one session until its trace ends or the deadline
// passes, then reads its stats and closes it.
func runSession(spec streamSpec, p *program, svc *service, client *http.Client, s *sessionRun, k int, seed int64, deadline time.Time, res *passResult, tr *tracer) {
	url := svc.base + "/v1/sessions/" + s.id
	fail := func(format string, args ...any) {
		res.failed++
		s.broken = true
		res.errors = append(res.errors, s.id+": "+fmt.Sprintf(format, args...))
	}
	migrateAt := -1
	if spec.migrateEvery > 0 && k%spec.migrateEvery == int(seed%int64(spec.migrateEvery)) {
		migrateAt = len(p.chunks) / 2
	}
	for i := range p.chunks {
		if !time.Now().Before(deadline) {
			break
		}
		if i == migrateAt && i > 0 {
			src := svc.router.Owner(s.id)
			tgt := svc.nodes[0]
			for j, n := range svc.nodes {
				if n == src {
					tgt = svc.nodes[(j+1)%len(svc.nodes)]
				}
			}
			res.attempted++
			t0 := time.Now()
			if _, err := cluster.Migrate(client, s.id, src, tgt); err != nil {
				fail("migrate: %v", err)
				break
			}
			svc.router.Pin(s.id, tgt)
			t1 := time.Now()
			tr.record("cluster.migrate", 0, s.id, i, t0, t1)
			res.migrations = append(res.migrations, t1.Sub(t0))
		}
		sp := tr.reserve("client.chunk", 0, s.id, i+1)
		tr.wait(s.id, sp)
		res.attempted++
		t0 := time.Now()
		resp, err := httpx.PostChunk(client, url+"/events", uint64(i+1), p.chunks[i], contentTypes[p.formats[i]], &res.retries)
		if err != nil {
			fail("chunk %d: %v", i+1, err)
			break
		}
		body, err := readOK(resp)
		t1 := time.Now()
		if err != nil {
			fail("chunk %d: %v", i+1, err)
			break
		}
		tr.fill(sp, t0, t1)
		res.rtts = append(res.rtts, t1.Sub(t0))
		res.acks = append(res.acks, ack{at: t1, rtt: t1.Sub(t0), events: p.chunkLen(i)})
		s.bodies = append(s.bodies, hashBody(body))
		s.acked++
	}
	defer tr.wait(s.id, 0)
	if s.acked == 0 || s.broken {
		return
	}
	st, err := getStats(client, url+"/stats")
	if err != nil {
		fail("stats: %v", err)
		return
	}
	s.stats = st
	sp := tr.reserve("client.close", 0, s.id, 0)
	tr.wait(s.id, sp)
	res.attempted++
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		fail("close: %v", err)
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		fail("close: %v", err)
		return
	}
	body, err := readOK(resp)
	t1 := time.Now()
	if err != nil {
		fail("close: %v", err)
		return
	}
	tr.fill(sp, t0, t1)
	res.closes = append(res.closes, t1.Sub(t0))
	s.close, s.closed = hashBody(body), true
}

// readOK consumes a response, requiring 200, and returns its body.
func readOK(resp *http.Response) ([]byte, error) {
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

func getStats(client *http.Client, url string) (map[string]int64, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	body, err := readOK(resp)
	if err != nil {
		return nil, err
	}
	st := make(map[string]int64)
	return st, json.Unmarshal(body, &st)
}

// scrapeCounters sums the named counters over every node's /metrics.
func scrapeCounters(svc *service, names ...string) (map[string]int64, error) {
	out := make(map[string]int64, len(names))
	bases := svc.nodes
	if len(bases) == 0 {
		bases = []string{svc.base}
	}
	for _, base := range bases {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			name, val, ok := strings.Cut(sc.Text(), " ")
			if !ok {
				continue
			}
			for _, n := range names {
				if name == n {
					v, err := strconv.ParseInt(val, 10, 64)
					if err == nil {
						out[n] += v
					}
				}
			}
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// serverCounters are the /metrics counters the traced pass reports.
var serverCounters = []string{"lpp_rejected_chunks_total", "lpp_checkpoints_total", "lpp_replayed_chunks_total"}

// runStream runs a streaming workload: set-up (repeated, reporting the
// median), the live pass(es), the reference, and the correctness gate.
func runStream(o options, spec streamSpec) (*outcome, error) {
	out := newOutcome()
	dir, err := runDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up: generate and encode every input, start the service.
	// Repeated from a collected heap so its median is steady; the last
	// one is used.
	var progs []*program
	var svc *service
	var setups []float64
	for r := 0; r < setupRuns; r++ {
		if svc != nil {
			svc.stop()
		}
		progs = nil
		runtime.GC()
		t0 := time.Now()
		progs, err = genInputs(spec, o.seed)
		if err != nil {
			return nil, err
		}
		svc, err = startService(spec, filepath.Join(dir, fmt.Sprintf("setup-%d", r)), nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	names := make([]string, len(progs))
	events := make([]int, len(progs))
	for i, p := range progs {
		names[i], events[i] = p.name, p.events
	}
	out.facts["programs"] = names
	out.facts["events_per_program"] = events
	out.facts["chunk_events"] = spec.chunkLen
	out.facts["formats"] = spec.formats
	out.facts["clients"] = spec.clients
	out.facts["nodes"] = spec.nodes
	out.facts["consumers"] = spec.consumers
	out.facts["migrate_every"] = spec.migrateEvery

	untraced := livePass(spec, progs, svc, o.seed, fmt.Sprintf("s%d", o.seed), o.seconds, nil)
	svc.stop()
	passes := []*passResult{untraced}

	var tr *tracer
	var traced *passResult
	var counters map[string]int64
	var stores []*knowledge.Store
	var balance float64
	if o.trace {
		tr = newTracer()
		tsvc, err := startService(spec, filepath.Join(dir, "traced"), tr)
		if err != nil {
			return nil, err
		}
		before, err := scrapeCounters(tsvc, serverCounters...)
		if err != nil {
			tsvc.stop()
			return nil, err
		}
		traced = livePass(spec, progs, tsvc, o.seed, fmt.Sprintf("t%d", o.seed), o.seconds, tr)
		after, err := scrapeCounters(tsvc, serverCounters...)
		if err != nil {
			tsvc.stop()
			return nil, err
		}
		counters = make(map[string]int64)
		for _, n := range serverCounters {
			counters[n] = after[n] - before[n]
		}
		stores = tsvc.stores
		balance = balanceRatio(traced.sessions, tsvc.nodes)
		tsvc.stop()
		passes = append(passes, traced)
	}
	for _, p := range passes {
		out.attempted += p.attempted
		out.failed += p.failed
		for i, e := range p.errors {
			if i == 5 {
				fmt.Fprintf(os.Stderr, "... %d more failed operations\n", len(p.errors)-i)
				break
			}
			fmt.Fprintln(os.Stderr, "failed:", e)
		}
	}

	// The reference: every program through a direct detector, traced
	// as the layer replay when asked.
	stops := make([]map[int]bool, len(progs))
	for i := range stops {
		stops[i] = map[int]bool{len(progs[i].chunks): true}
	}
	for _, p := range passes {
		for _, s := range p.sessions {
			if s.acked > 0 {
				stops[s.prog][s.acked] = true
			}
		}
	}
	var env *replayEnv
	if o.trace {
		env = &replayEnv{tr: tr, consumers: spec.consumers, columns: spec.nodes == 0}
		rdir := filepath.Join(dir, "replay")
		if spec.nodes > 0 {
			env.durableDir = filepath.Join(rdir, "data")
			if env.durable, err = durable.Open(env.durableDir, nil, false); err != nil {
				return nil, err
			}
		}
		if spec.knowledge {
			if env.knowledge, err = knowledge.Open(filepath.Join(rdir, "knowledge.lppk"), nil, knowledge.Config{}); err != nil {
				return nil, err
			}
		}
	}
	refs, err := referenceAll(progs, stops, env)
	if err != nil {
		return nil, err
	}
	if o.corrupt {
		refs[0].bodies[0] ^= 1
	}
	for _, p := range passes {
		verifySessions(out, p, refs)
	}

	if !o.trace {
		out.metrics["setup_s"] = median(setups)
		out.metrics["events_per_s"], out.metrics["op_p50_ms"], out.metrics["op_p90_ms"] = untraced.windowed(o.seconds)
		out.metrics["boundary_recall"] = pooledRecall(progs, refs)
		out.metrics["peak_rss_mb"] = peakRSSMB()
		out.facts["chunks_acked"] = len(untraced.rtts)
		out.facts["sessions"] = len(untraced.sessions)
		return out, nil
	}
	streamLayers(out, spec, progs, refs, untraced, traced, tr, counters, stores, balance)
	if err := tr.write(filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))); err != nil {
		return nil, err
	}
	return out, nil
}

// genInputs generates and encodes every program of the workload.
func genInputs(spec streamSpec, seed int64) ([]*program, error) {
	progs := make([]*program, len(spec.programs))
	for i, ps := range spec.programs {
		ws, err := workload.ByName(ps.name)
		if err != nil {
			return nil, err
		}
		p := genProgram(ws, ps.params(ws.Train), addrOffset(seed))
		if err := p.encode(spec.chunkLen, spec.formats, int(seed%int64(len(spec.formats)))); err != nil {
			return nil, err
		}
		progs[i] = p
	}
	return progs, nil
}

// verifySessions is the correctness gate: every acknowledged chunk's
// response, the stats counters before close, and the close response
// must equal the direct detector's after the same chunks.
func verifySessions(out *outcome, pr *passResult, refs []*reference) {
	for _, s := range pr.sessions {
		if s.acked == 0 || s.broken {
			continue
		}
		ref := refs[s.prog]
		for i, h := range s.bodies {
			if h != ref.bodies[i] {
				out.mismatch("%s chunk %d: response differs from the direct detector's", s.id, i+1)
				break
			}
		}
		st, ok := ref.stats[s.acked]
		if !ok {
			out.mismatch("%s: no reference state after %d chunks", s.id, s.acked)
			continue
		}
		want := map[string]int64{
			"events": st.Accesses + st.Blocks, "boundaries": st.Boundaries, "predictions": st.Predictions,
			"dropped": st.DroppedEvents, "shed": st.Shed, "seq": int64(s.acked), "quarantined": 0,
		}
		for k, v := range want {
			if s.stats[k] != v {
				out.mismatch("%s stats %s = %d, direct detector %d", s.id, k, s.stats[k], v)
			}
		}
		if s.closed && s.close != ref.closes[s.acked] {
			out.mismatch("%s close after %d chunks: response differs from the direct detector's flush", s.id, s.acked)
		}
	}
}

// pooledRecall scores every program's boundaries against its manual
// markers and pools the matches.
func pooledRecall(progs []*program, refs []*reference) float64 {
	matched, total := 0, 0
	for i, p := range progs {
		m := recall(p.marks, refs[i].boundaries, int64(len(p.rec.Accesses)))
		matched += m
		total += len(p.marks)
	}
	return ratio(float64(matched), float64(total))
}

// streamLayers derives the per-layer metrics of a traced stream run.
func streamLayers(out *outcome, spec streamSpec, progs []*program, refs []*reference, untraced, traced *passResult, tr *tracer, counters map[string]int64, stores []*knowledge.Store, balance float64) {
	m := out.metrics
	mean := func(ds []time.Duration) float64 {
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		return ratio(float64(sum.Microseconds()), float64(len(ds)))
	}
	chunks := float64(len(traced.rtts))
	m["client.untraced_rtt_us"] = mean(untraced.rtts)
	m["client.traced_rtt_us"] = mean(traced.rtts)
	m["client.rtt_p99_ms"] = percentileMs(traced.rtts, 0.99)
	m["trace.overhead_ratio"] = ratio(m["client.traced_rtt_us"], m["client.untraced_rtt_us"]) - 1

	routerSelf := 0.0
	if spec.nodes > 0 {
		forwards := 0
		for _, sp := range tr.spans {
			if sp.Name == "cluster.forward" && sp.Chunk > 0 {
				forwards++
			}
		}
		m["cluster.forwards_per_chunk"] = ratio(float64(forwards), chunks)
		routerSelf = float64(tr.meanSelf("client.chunk").Nanoseconds()) / 1e3
		m["cluster.router_self_us_per_chunk"] = routerSelf
		ms := make([]float64, len(traced.migrations))
		for i, d := range traced.migrations {
			ms[i] = float64(d.Nanoseconds()) / 1e6
		}
		m["cluster.migrate_ms"] = median(ms)
		m["cluster.balance_ratio"] = balance
	}

	// The traced work per chunk, weighted by the live pass's mix.
	acked := make([]float64, len(progs))
	for _, s := range traced.sessions {
		acked[s.prog] += float64(s.acked)
	}
	var work float64
	for i, r := range refs {
		work += ratio(float64(r.layer.work().Nanoseconds())/1e3, float64(r.layer.chunks)) * ratio(acked[i], chunks)
	}
	m["server.work_us_per_chunk"] = work
	m["server.overhead_us_per_chunk"] = m["client.traced_rtt_us"] - routerSelf - work
	m["server.rejected_chunks"] = float64(counters["lpp_rejected_chunks_total"])
	m["server.checkpoints"] = float64(counters["lpp_checkpoints_total"])
	m["server.replayed_chunks"] = float64(counters["lpp_replayed_chunks_total"])
	rc := traced.retries
	m["httpx.retries_per_chunk"] = ratio(float64(rc.Status429+rc.Status5xx+rc.Conn), chunks)
	m["session.close_p50_ms"] = percentileMs(traced.closes, 0.50)
	var shed, evs, dropped int64
	for _, s := range traced.sessions {
		shed += s.stats["shed"]
		evs += s.stats["events"]
		dropped += s.stats["dropped"]
	}
	m["online.shed_ratio"] = ratio(float64(shed), float64(evs))
	m["online.dropped_events"] = float64(dropped)
	var hits, misses int64
	for _, ks := range stores {
		st := ks.Stats()
		hits += st.Hits
		misses += st.Misses
	}
	m["knowledge.hit_ratio"] = ratio(float64(hits), float64(hits+misses))

	var c replayCost
	var wire, allEvents int64
	var boundaries int
	for i, r := range refs {
		c.add(&r.layer)
		wire += int64(progs[i].wireBytes)
		allEvents += int64(progs[i].events)
		boundaries += len(r.boundaries)
	}
	ns := func(d time.Duration) float64 { return float64(d.Nanoseconds()) }
	detectSelf := ns(c.detect - c.chain)
	m["trace.decode_ns_per_event"] = ratio(ns(c.decode), float64(c.decodedEvents))
	m["trace.wire_bytes_per_event"] = ratio(float64(wire), float64(allEvents))
	m["online.detect_ns_per_event"] = ratio(detectSelf, float64(c.events))
	m["online.chunk_detect_p99_ms"] = percentileMs(c.chunkDetect, 0.99)
	m["online.analyzer_share"] = ratio(ns(c.approx), detectSelf)
	m["online.boundaries"] = float64(boundaries)
	m["online.snapshot_ms"] = ratio(ns(c.snapshot)/1e6, float64(c.snapshots))
	m["online.snapshot_bytes"] = ratio(float64(c.snapshotBytes), float64(c.snapshots))
	m["reuse.approx_ns_per_access"] = ratio(ns(c.approx), float64(c.accesses))
	m["reuse.exact_ns_per_access"] = ratio(ns(c.exact), float64(c.accesses))
	if spec.nodes > 0 {
		m["durable.append_us_per_chunk"] = ratio(ns(c.appendWAL)/1e3, float64(c.chunks))
	}
	m["durable.wal_bytes_per_event"] = ratio(float64(c.walBytes), float64(c.walEvents))
	m["durable.checkpoint_ms"] = ratio(ns(c.checkpoint)/1e6, float64(c.snapshots))
	m["phase.chain_ns_per_event"] = ratio(ns(c.chain), float64(c.chainEvents))
	m["phase.events"] = float64(c.chainEvents)
	m["knowledge.contribute_us"] = ratio(ns(c.contribute)/1e3, float64(c.contributions))
	m["knowledge.persist_ms"] = ratio(ns(c.persist)/1e6, float64(c.persisting))

	fmt.Fprintf(os.Stderr, "per chunk (us): untraced rtt %.1f = router self %.1f + traced work %.1f + server overhead (residual) %.1f - tracing overhead %.1f\n",
		m["client.untraced_rtt_us"], routerSelf, work, m["server.overhead_us_per_chunk"], m["client.traced_rtt_us"]-m["client.untraced_rtt_us"])
}

// balanceRatio is the most sessions any node owned at session start
// over the fewest (the fewest counted as at least one).
func balanceRatio(sessions []*sessionRun, nodes []string) float64 {
	if len(nodes) == 0 {
		return 0
	}
	owned := make(map[string]int, len(nodes))
	for _, s := range sessions {
		owned[s.owner]++
	}
	lo, hi := owned[nodes[0]], 0
	for _, n := range nodes {
		lo, hi = min(lo, owned[n]), max(hi, owned[n])
	}
	return ratio(float64(hi), float64(max(lo, 1)))
}

// runDir makes a fresh scratch directory for one run under
// .bench_build/ in the working directory.
func runDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "run-")
}
