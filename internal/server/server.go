// Package server exposes the streaming phase detector over HTTP. Each
// session owns one online.Detector fed by a dedicated goroutine;
// clients POST trace chunks (NDJSON events, the binary trace file
// format, or columnar v2 chunks) and receive the phase events those
// chunks produced as NDJSON. Every wire format decodes into one
// representation, trace.Columns, which the worker feeds to the
// detector through AccessColumns. Ingestion is backpressured: each
// session has a bounded chunk queue, and a full queue answers 429
// instead of growing; queue occupancy also drives the detector's
// load-shedding stride.
//
// With a DataDir configured, sessions are durable: every accepted
// chunk is written to a per-session WAL (as row-form events) before
// processing, the detector is checkpointed periodically, and a
// restarted server replays the WAL suffix so the recovered detector
// emits exactly the phase boundaries an uninterrupted run would have.
// Clients may tag chunks with monotonically increasing sequence
// numbers (X-Lpp-Seq); a retransmit of the last accepted sequence
// number replays its cached response instead of double-feeding the
// detector, and a gap answers 409.
//
// The package is layered:
//
//   - transport (transport.go) — HTTP handlers, chunk/content-type
//     negotiation (decode.go), sequence headers, backpressure mapping.
//   - registry (registry.go) — the sharded session table, session
//     lifecycle (local/suspended/migrating/remote), the idle reaper,
//     and the one worker round-trip every request goes through.
//   - engine (engine.go, engine_state.go) — the per-session worker
//     loop owning the detector, the phase chain, durability, and the
//     knowledge/replica hooks.
//
// Migration endpoints (migrate_handlers.go) move a live session to
// another node by exporting its LPPCKPT1 checkpoint image — the disk
// format doubles as the wire format.
package server

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lpp/internal/durable"
	"lpp/internal/faultfs"
	"lpp/internal/knowledge"
	"lpp/internal/online"
	"lpp/internal/phase"
	"lpp/internal/replica"
)

// Config tunes the server. The zero value takes the defaults below.
type Config struct {
	// Detector is the per-session detector configuration. Its OnEvent
	// field is overwritten; everything else passes through.
	Detector online.Config
	// Consumers, when non-nil, builds each session's run-time
	// adaptation chain; every phase event the session's detector emits
	// is also delivered to the chain, the chain's state rides the
	// session's checkpoints (and is replayed bit-identically after
	// crash recovery), and per-consumer delivery counters appear on
	// /metrics. The factory must return chains with the same consumers
	// in the same order every call — a durable session restored under a
	// different consumer composition is quarantined rather than
	// silently diverging.
	Consumers func() *phase.Chain
	// Knowledge, when non-nil, is the cross-session phase knowledge
	// store. Every session's chain gains a knowledge consumer ahead of
	// the chain's predictor consumer (if any), so a new session whose
	// early grammar matches a stored program warm-starts its predictor;
	// sessions contribute their learned state back on close and
	// suspend, the store persists after each contribution, and
	// lpp_knowledge_* counters appear on /metrics alongside the
	// GET /v1/knowledge inventory endpoint.
	Knowledge *knowledge.Store
	// QueueDepth is the number of chunks buffered per session beyond
	// the one being processed (default 8). A full queue rejects the
	// chunk with 429.
	QueueDepth int
	// MaxSessions caps concurrently open sessions (default 256); at
	// the cap, new sessions are refused with 503.
	MaxSessions int
	// MaxChunkBytes caps a single POST body (default 8 MiB).
	MaxChunkBytes int64
	// DataDir enables durability: each session keeps a checkpoint and
	// a write-ahead log under this directory and survives a crash or
	// restart. Empty means in-memory only.
	DataDir string
	// FS overrides the filesystem the durable layer writes through
	// (fault-injection tests). Nil means the real filesystem.
	FS faultfs.FS
	// SyncWrites fsyncs every WAL append and checkpoint, trading
	// latency for durability against power loss.
	SyncWrites bool
	// CheckpointEvery is the number of accepted chunks between
	// detector checkpoints (default 64). It bounds recovery replay.
	CheckpointEvery int
	// IdleTimeout suspends sessions idle longer than this: checkpoint,
	// evict from memory, recover transparently on the next request.
	// Zero disables the reaper; it requires DataDir.
	IdleTimeout time.Duration
	// ReapInterval is how often the reaper scans for idle sessions
	// (default IdleTimeout/4, at least 10ms).
	ReapInterval time.Duration
	// Shards is the number of lock stripes for the session table
	// (default 16), rounded up to a power of two. Sessions hash to a
	// shard by ID; sessions on different shards never contend on a
	// table lock. 1 reproduces the old single-mutex behavior.
	Shards int
	// Advertise is this node's base URL as other cluster members reach
	// it (e.g. "http://10.0.0.1:8080"). It labels locally-owned
	// sessions in GET /v1/sessions and SessionState; empty
	// means a single-node deployment.
	Advertise string
	// Peer, when non-empty, is the base URL of a standby replica.
	// Session checkpoints (and knowledge snapshots) stream to it
	// asynchronously so the peer can take over after a node death;
	// see internal/replica for the delivery contract. Requires DataDir.
	Peer string
	// Standby starts the server as a replication target: it refuses
	// normal ingest with 503, accepts /v1/replica/* writes, and reports
	// not-ready until promoted (Promote or POST /v1/replica/promote).
	// Requires DataDir.
	Standby bool
	// ReplicaQueue bounds the replication queue (default 64); overflow
	// drops the oldest item and schedules a resync.
	ReplicaQueue int
	// ReplicaTimeout is the per-replication-request deadline
	// (default 5s).
	ReplicaTimeout time.Duration
	// ReplicaTransport overrides the replication HTTP transport
	// (fault-injection tests).
	ReplicaTransport http.RoundTripper
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.MaxChunkBytes <= 0 {
		c.MaxChunkBytes = 8 << 20
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 64
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	c.Shards = nextPow2(c.Shards)
	if c.ReapInterval <= 0 {
		c.ReapInterval = c.IdleTimeout / 4
		if c.ReapInterval < 10*time.Millisecond {
			c.ReapInterval = 10 * time.Millisecond
		}
	}
	return c
}

// Server routes HTTP requests to per-session detector workers.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	store *durable.Store // nil when ephemeral

	// shards stripes the session table by ID hash (registry.go);
	// shardMask is len(shards)-1, a power-of-two mask.
	shards    []shard
	shardMask uint32
	closed    atomic.Bool

	// placeMu guards the placement maps: sessions this node no longer
	// (remote) or temporarily doesn't (migrating) own. See registry.go.
	placeMu   sync.Mutex
	remote    map[string]string
	migrating map[string]struct{}

	stop     chan struct{}
	stopOnce sync.Once
	reapWG   sync.WaitGroup

	// standby is true until Promote; a standby refuses normal ingest
	// and accepts /v1/replica/* writes instead. ready backs /readyz;
	// state is the human-readable reason when not ready.
	standby atomic.Bool
	ready   atomic.Bool
	stateMu sync.Mutex
	state   string

	// rep streams checkpoints to the configured peer (nil without one;
	// installed at New on a primary, at Promote on a standby).
	rep atomic.Pointer[replica.Replicator]

	// replicaMu serializes replica ingest; replicaSeqs tracks the
	// checkpoint seq held per session so stale images are ignored.
	replicaMu   sync.Mutex
	replicaSeqs map[string]uint64

	m metrics

	// testChunkHook, when set (tests only), runs during each chunk's
	// processing — after the WAL append, before the detector feed — so
	// tests can hold or kill a worker mid-chunk.
	testChunkHook func()
}

// New returns a Server; use Handler to serve it.
func New(cfg Config) (*Server, error) {
	s := &Server{
		cfg:  cfg.withDefaults(),
		mux:  http.NewServeMux(),
		stop: make(chan struct{}),
	}
	s.shards = make([]shard, s.cfg.Shards)
	s.shardMask = uint32(s.cfg.Shards - 1)
	for i := range s.shards {
		s.shards[i].sessions = make(map[string]*session)
	}
	s.remote = make(map[string]string)
	s.migrating = make(map[string]struct{})
	s.m.rings = make([]latencyRing, s.cfg.Shards)
	if s.cfg.DataDir == "" {
		if s.cfg.Peer != "" {
			return nil, errors.New("server: replication (Peer) requires DataDir")
		}
		if s.cfg.Standby {
			return nil, errors.New("server: standby mode requires DataDir")
		}
	}
	if s.cfg.DataDir != "" {
		store, err := durable.Open(s.cfg.DataDir, s.cfg.FS, s.cfg.SyncWrites)
		if err != nil {
			return nil, err
		}
		s.store = store
	}
	if s.cfg.Knowledge != nil {
		// Wrap the chain factory so every session leads with a knowledge
		// consumer targeting the chain's predictor consumer (if any).
		// Leading matters: the warm start must land before the predictor
		// consumes the boundary that triggered the match.
		inner := s.cfg.Consumers
		store := s.cfg.Knowledge
		s.cfg.Consumers = func() *phase.Chain {
			var cons []phase.Consumer
			if inner != nil {
				cons = inner().Consumers()
			}
			var target *phase.PredictorConsumer
			for _, c := range cons {
				if pc, ok := c.(*phase.PredictorConsumer); ok {
					target = pc
					break
				}
			}
			kc := knowledge.NewConsumer(store, target)
			return phase.NewChain(append([]phase.Consumer{kc}, cons...)...)
		}
	}
	if s.cfg.Consumers != nil {
		// Probe the factory once so the per-consumer metric slots (and
		// their order) are fixed before any session exists.
		probe := s.cfg.Consumers()
		names := make([]string, 0, probe.Len())
		for _, st := range probe.Stats() {
			names = append(names, st.Name)
		}
		s.m.initConsumers(names)
	}
	s.m.start = time.Now()
	s.routes()
	s.replicaSeqs = make(map[string]uint64)
	s.standby.Store(s.cfg.Standby)
	if s.cfg.Standby {
		s.setState("standby")
		// Seed the per-session seq table from disk so a restarted
		// standby answers /v1/replica/status without re-receiving
		// everything.
		if err := s.loadReplicaSeqs(); err != nil {
			return nil, err
		}
	} else {
		s.ready.Store(true)
		s.setState("ready")
		if s.cfg.Peer != "" {
			rep, err := s.newReplicator()
			if err != nil {
				return nil, err
			}
			s.rep.Store(rep)
		}
	}
	if s.store != nil && s.cfg.IdleTimeout > 0 {
		s.reapWG.Add(1)
		go s.reap()
	}
	return s, nil
}

// Handler returns the HTTP handler for the server.
func (s *Server) Handler() http.Handler { return s.mux }

// ShardCount reports the resolved number of session-table lock stripes
// (Config.Shards after defaulting and power-of-two rounding).
func (s *Server) ShardCount() int { return len(s.shards) }

// Advertise returns this node's advertised base URL ("" single-node).
func (s *Server) Advertise() string { return s.cfg.Advertise }

// RecoverSessions eagerly revives every session with durable state,
// replaying each WAL so detectors are warm before traffic arrives. It
// returns the number of sessions recovered. Without a DataDir it is a
// no-op; recovery also happens lazily on the first request for an id.
func (s *Server) RecoverSessions() (int, error) {
	if s.store == nil {
		return 0, nil
	}
	// WAL replay can take a while; flag it on /readyz so load balancers
	// hold traffic until the detectors are warm.
	s.ready.Store(false)
	s.setState("recovering")
	ids, err := s.store.List()
	if err != nil {
		s.setState("recovery failed: " + err.Error())
		return 0, err
	}
	for i, id := range ids {
		sess, err := s.getSession(id, true)
		if err != nil {
			s.setState("recovery failed: " + err.Error())
			return i, fmt.Errorf("recover session %q: %w", id, err)
		}
		<-sess.ready
	}
	if !s.standby.Load() {
		s.setState("ready")
		s.ready.Store(true)
	}
	return len(ids), nil
}

// Close stops the reaper and tears every session down gracefully:
// queued chunks are processed, then each session is checkpointed (with
// durability) and its worker exits. Durable sessions stay recoverable
// on disk; ephemeral state is discarded.
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.reapWG.Wait()
	s.ready.Store(false)
	s.setState("shutting down")
	// Store closed before draining: any create serialized after this
	// point is refused inside its shard's critical section, and any
	// create that got in first is visible to the drain.
	s.closed.Store(true)
	for _, sess := range s.drainSessions() {
		sess.roundTrip(chunk{op: opSuspend})
	}
	s.m.sessionsActive.Store(0)
	// Replication drains after the suspend pass so the final
	// checkpoints reach the peer before the sender stops.
	if rep := s.rep.Load(); rep != nil {
		rep.Flush(5 * time.Second)
		rep.Stop()
	}
}

// Kill simulates a crash: every worker stops where it stands; nothing
// is flushed or checkpointed. Durable state is whatever the WAL and
// the last checkpoint already captured. Chaos tests use it; production
// shutdown uses Close.
func (s *Server) Kill() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.reapWG.Wait()
	s.closed.Store(true)
	for _, sess := range s.drainSessions() {
		sess.killOnce.Do(func() { close(sess.kill) })
	}
	if rep := s.rep.Load(); rep != nil {
		rep.Stop() // no flush: a crash abandons the queue
	}
}

var (
	errNoSession       = errors.New("no such session")
	errTooManySessions = errors.New("session limit reached")
	errServerClosed    = errors.New("server closed")
	errQueueFull       = errors.New("session queue full")
	errSessionDown     = errors.New("session terminated")
	errNotEnqueued     = errors.New("session terminated before taking the request")
	errContended       = errors.New("session contended; retry")
	errStandby         = errors.New("standby: not accepting ingest; promote this node or use the primary")
	errMigrating       = errors.New("session is migrating; retry")
)
