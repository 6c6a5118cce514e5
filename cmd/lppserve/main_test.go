package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"lpp/internal/trace"
)

// binaryChunk encodes a small synthetic access burst.
func binaryChunk(t *testing.T, seed, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	w.Block(trace.BlockID(seed), 32)
	for i := 0; i < n; i++ {
		w.Access(trace.Addr(seed<<24 | i*8))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postChunk(t *testing.T, addr, id string, seq uint64, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST",
		fmt.Sprintf("http://%s/v1/sessions/%s/events?seq=%d", addr, id, seq),
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-lpp-trace")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("post seq %d: %v", seq, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// TestSigtermDrainLeavesSessionsRecoverable drives a full lifecycle of
// the command in-process: serve, stream a session, SIGTERM, drain to a
// clean (exit 0) return within the deadline — then restart over the
// same data directory and verify the session came back at the exact
// sequence number it was checkpointed at.
func TestSigtermDrainLeavesSessionsRecoverable(t *testing.T) {
	dir := t.TempDir()
	serve := func() (addr string, errc chan error) {
		ready := make(chan string, 1)
		errc = make(chan error, 1)
		go func() {
			errc <- run([]string{"-addr", "127.0.0.1:0", "-data", dir, "-drain", "10s"}, ready, nil)
		}()
		select {
		case addr = <-ready:
		case err := <-errc:
			t.Fatalf("server exited before ready: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("server never became ready")
		}
		return addr, errc
	}
	sigterm := func(errc chan error) {
		t.Helper()
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("drain returned error (non-zero exit): %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("drain did not complete within the deadline")
		}
	}

	addr, errc := serve()
	for seq := uint64(1); seq <= 3; seq++ {
		if resp := postChunk(t, addr, "drain", seq, binaryChunk(t, int(seq), 4096)); resp.StatusCode != http.StatusOK {
			t.Fatalf("seq %d: status %d", seq, resp.StatusCode)
		}
	}
	sigterm(errc)

	// Restart: the session must be recovered eagerly and resumable.
	addr, errc = serve()
	resp, err := http.Get(fmt.Sprintf("http://%s/v1/sessions/drain/stats", addr))
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]int64
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stats after restart: status %d, %v", resp.StatusCode, err)
	}
	if stats["seq"] != 3 {
		t.Fatalf("recovered at seq %d, want 3", stats["seq"])
	}
	// A duplicate of the last chunk replays; the next one advances.
	if resp := postChunk(t, addr, "drain", 3, binaryChunk(t, 3, 4096)); resp.StatusCode != http.StatusOK ||
		resp.Header.Get("X-Lpp-Replayed") != "true" {
		t.Fatalf("retransmit after restart: status %d replayed %q", resp.StatusCode, resp.Header.Get("X-Lpp-Replayed"))
	}
	if resp := postChunk(t, addr, "drain", 4, binaryChunk(t, 4, 4096)); resp.StatusCode != http.StatusOK {
		t.Fatalf("seq 4 after restart: status %d", resp.StatusCode)
	}
	sigterm(errc)
}

// serveArgs starts run() in-process with the given extra args and
// returns the bound address and exit channel.
func serveArgs(t *testing.T, extra ...string) (string, chan error) {
	t.Helper()
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	go func() { errc <- run(args, ready, nil) }()
	select {
	case addr := <-ready:
		return addr, errc
	case err := <-errc:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	return "", nil
}

func getStatus(t *testing.T, addr, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, body
}

// TestRouterModeFlags drives the 3-node quickstart from the README:
// three members with -advertise, one -router fronting them via -nodes.
// Clients talk only to the router; a cluster migrate moves the session
// and ingest keeps flowing.
func TestRouterModeFlags(t *testing.T) {
	bases := make([]string, 3)
	errcs := make([]chan error, 0, 4)
	for i := range bases {
		ready := make(chan string, 1)
		errc := make(chan error, 1)
		dir := t.TempDir()
		// -advertise needs the bound address: bind first via run's ready
		// channel, then the URL the node advertises must match — so give
		// each node a fixed loopback port chosen by a throwaway listener.
		addr := reserveAddr(t)
		go func() {
			errc <- run([]string{"-addr", addr, "-data", dir, "-advertise", "http://" + addr}, ready, nil)
		}()
		select {
		case <-ready:
		case err := <-errc:
			t.Fatalf("node exited before ready: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("node never became ready")
		}
		bases[i] = "http://" + addr
		errcs = append(errcs, errc)
	}
	routerAddr, errcR := serveArgs(t, "-router", "-nodes",
		bases[0]+","+bases[1]+","+bases[2])
	errcs = append(errcs, errcR)

	// -nodes on a member without -advertise must be rejected.
	if err := run([]string{"-nodes", bases[0], "-data", t.TempDir()}, nil, nil); err == nil {
		t.Fatal("-nodes on a member without -advertise accepted")
	}

	for seq := uint64(1); seq <= 3; seq++ {
		if resp := postChunk(t, routerAddr, "rq", seq, binaryChunk(t, int(seq), 4096)); resp.StatusCode != http.StatusOK {
			t.Fatalf("seq %d via router: status %d", seq, resp.StatusCode)
		}
	}
	resp, body := getStatus(t, routerAddr, "/v1/cluster/status")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster status: %d %s", resp.StatusCode, body)
	}
	var status struct {
		Nodes []struct {
			URL   string `json:"url"`
			Alive bool   `json:"alive"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatalf("cluster status: %v: %s", err, body)
	}
	if len(status.Nodes) != 3 {
		t.Fatalf("status lists %d nodes, want 3: %s", len(status.Nodes), body)
	}
	for _, n := range status.Nodes {
		if !n.Alive {
			t.Fatalf("node %s reported dead: %s", n.URL, body)
		}
	}

	// Find the owner via the merged listing, then drain the session to
	// another member through the router.
	_, listing := getStatus(t, routerAddr, "/v1/sessions")
	owner := ""
	for _, b := range bases {
		if bytes.Contains(listing, []byte(b)) && bytes.Contains(listing, []byte(`"rq"`)) {
			// The listing groups sessions under their node; owner is the
			// node whose group holds "rq".
			var merged struct {
				Nodes []struct {
					Node     string `json:"node"`
					Sessions []struct {
						ID string `json:"id"`
					} `json:"sessions"`
				} `json:"nodes"`
			}
			if err := json.Unmarshal(listing, &merged); err != nil {
				t.Fatalf("merged listing: %v: %s", err, listing)
			}
			for _, n := range merged.Nodes {
				for _, s := range n.Sessions {
					if s.ID == "rq" {
						owner = n.Node
					}
				}
			}
		}
	}
	if owner == "" {
		t.Fatalf("session rq not in merged listing: %s", listing)
	}
	target := ""
	for _, b := range bases {
		if b != owner {
			target = b
			break
		}
	}
	mresp, mbody := postStatus(t, routerAddr, "/v1/cluster/migrate?session=rq&target="+target)
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("migrate via router: %d %s", mresp.StatusCode, mbody)
	}
	if resp := postChunk(t, routerAddr, "rq", 4, binaryChunk(t, 4, 4096)); resp.StatusCode != http.StatusOK {
		t.Fatalf("seq 4 after migration: status %d", resp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for i, errc := range errcs {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("instance %d drain returned error: %v", i, err)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("instance %d did not drain", i)
		}
	}
}

// reserveAddr picks a free loopback port and releases it for the node
// to bind. The tiny race window is acceptable in tests.
func reserveAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func postStatus(t *testing.T, addr, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post("http://"+addr+path, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, body
}

// TestRingPairFailover drives the two-member story in-process: two
// members started with -nodes/-advertise/-data replicate to each other
// behind a -router; the session's owner goes down and the client
// carries on through the router with no acknowledged chunk lost.
func TestRingPairFailover(t *testing.T) {
	addrs := []string{reserveAddr(t), reserveAddr(t)}
	nodes := "http://" + addrs[0] + ",http://" + addrs[1]
	quits := make(map[string]chan struct{}, 2)
	errcs := make(map[string]chan error, 3)
	for _, addr := range addrs {
		ready := make(chan string, 1)
		errc := make(chan error, 1)
		quit := make(chan struct{})
		args := []string{"-addr", addr, "-data", t.TempDir(), "-advertise", "http://" + addr,
			"-nodes", nodes, "-checkpoint-every", "2"}
		go func() { errc <- run(args, ready, quit) }()
		select {
		case <-ready:
		case err := <-errc:
			t.Fatalf("member exited before ready: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("member never became ready")
		}
		quits["http://"+addr], errcs["http://"+addr] = quit, errc
	}
	routerAddr, errcR := serveArgs(t, "-router", "-nodes", nodes)
	errcs["router"] = errcR

	// The client's view: every acknowledged response, re-checked on
	// any replay.
	send := func(seq uint64) *http.Response {
		t.Helper()
		req, err := http.NewRequest("POST",
			fmt.Sprintf("http://%s/v1/sessions/ha/events?seq=%d", routerAddr, seq),
			bytes.NewReader(binaryChunk(t, int(seq), 4096)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/x-lpp-trace")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("post seq %d: %v", seq, err)
		}
		return resp
	}
	acked := make(map[uint64][]byte)
	ingest := func(from, to uint64) {
		t.Helper()
		for seq := from; seq <= to; {
			resp := send(seq)
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusConflict {
				want, err := strconv.ParseUint(resp.Header.Get("X-Lpp-Want-Seq"), 10, 64)
				if err != nil || want == 0 || want > seq {
					t.Fatalf("409 without usable X-Lpp-Want-Seq at seq %d: %s", seq, body)
				}
				seq = want
				continue
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("seq %d via router: status %d: %s", seq, resp.StatusCode, body)
			}
			if prev, ok := acked[seq]; ok && !bytes.Equal(prev, body) {
				t.Fatalf("seq %d replayed after failover diverges from its acknowledged response", seq)
			}
			acked[seq] = body
			seq++
		}
	}
	ingest(1, 4)

	// Find the owner in the merged listing, then take it down.
	_, listing := getStatus(t, routerAddr, "/v1/sessions")
	var merged struct {
		Nodes []struct {
			Node     string `json:"node"`
			Sessions []struct {
				ID string `json:"id"`
			} `json:"sessions"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(listing, &merged); err != nil {
		t.Fatalf("merged listing: %v: %s", err, listing)
	}
	owner := ""
	for _, n := range merged.Nodes {
		for _, s := range n.Sessions {
			if s.ID == "ha" {
				owner = n.Node
			}
		}
	}
	if quits[owner] == nil {
		t.Fatalf("session ha has no owner in the merged listing: %s", listing)
	}
	close(quits[owner])
	if err := <-errcs[owner]; err != nil {
		t.Fatalf("owner drain returned error: %v", err)
	}
	delete(errcs, owner)

	// The survivor adopts the replicated image; the client continues.
	ingest(5, 8)
	resp, body := getStatus(t, routerAddr, "/v1/sessions/ha/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats via router after failover: %d %s", resp.StatusCode, body)
	}
	var stats map[string]int64
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats["seq"] != 8 {
		t.Fatalf("survivor at seq %d, want 8", stats["seq"])
	}
	// It resumed from the replicated image, not from scratch.
	for member := range quits {
		if member == owner {
			continue
		}
		_, metrics := getStatus(t, strings.TrimPrefix(member, "http://"), "/metrics")
		if !bytes.Contains(metrics, []byte("lpp_replica_adopted_total 1\n")) {
			t.Fatalf("survivor did not adopt the replicated image:\n%s", metrics)
		}
	}

	// One SIGTERM drains the survivor and the router.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for name, errc := range errcs {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("%s drain returned error: %v", name, err)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("%s did not drain", name)
		}
	}
}
