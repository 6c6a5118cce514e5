// Package knowledge implements the cross-session phase knowledge
// store: a bounded, concurrent, snapshot-durable map from phase-grammar
// fingerprints to the phase behavior a previous session of the same
// program learned (phase lengths, locality signatures, predictor
// state). The paper's premise is that phase behavior recurs across
// executions of the same program; this store is where that recurrence
// is amortized across sessions. A new session feeds its early phase
// boundaries into a small sequitur grammar, matches the grammar's
// Compact digest against the store with an Importance-weighted
// similarity, and on a confident match warm-starts its predictor so
// the first prediction lands at a phase's first recurrence instead of
// its third.
package knowledge

import (
	"math"
	"sort"
	"sync"

	"lpp/internal/cache"
	"lpp/internal/faultfs"
	"lpp/internal/predictor"
	"lpp/internal/sequitur"
)

// Term packs a phase ID and the length of the boundary interval that
// ended it into one grammar terminal: the phase in the high bits and a
// quarter-octave bucket of the interval length in the low byte. Phase
// IDs alone do not discriminate programs (most workloads run one
// dominant phase), but the rhythm of phase lengths does; quantizing to
// quarter octaves keeps the terminal stable across runs that jitter by
// less than ~19% while separating programs whose periods differ.
func Term(phase int, interval int64) int {
	if interval < 1 {
		interval = 1
	}
	b := int(math.Round(4 * math.Log2(float64(interval))))
	if b > 255 {
		b = 255
	}
	return phase<<8 | b
}

// PrefixTerms is how many leading grammar terminals an entry stores
// for prefix matching: a returning program replays an identical
// boundary-term sequence, so positional agreement over even a few
// early terms identifies it long before the grammar's term
// distribution converges.
const PrefixTerms = 32

// Knowledge is one program's stored phase behavior.
type Knowledge struct {
	// Fingerprint is Grammar.Fingerprint(), the store key.
	Fingerprint uint64
	// Grammar is the Compact digest of the contributing session's
	// phase grammar (over Term terminals).
	Grammar sequitur.Compact
	// Prefix is the first PrefixTerms terminals of the contributing
	// session's grammar expansion, in order.
	Prefix []int
	// Predictor is the contributing session's learned predictor state,
	// compacted: per-phase length/locality tails only, no pending
	// predictions, no scores.
	Predictor predictor.State
	// Boundaries is how many phase boundaries the contributing session
	// observed; richer contributions replace poorer ones.
	Boundaries int64
	// Hits counts warm starts served from this entry.
	Hits int64
	// Clock is the store's logical time of the entry's last touch.
	Clock int64
}

// Matching policy. A session matches only inside a window of
// boundaries, and only when its best candidate leads the runner-up.
const (
	// DefaultThreshold is the minimum match score when
	// Config.Threshold is zero.
	DefaultThreshold = 0.70
	// matchMargin is how far the best candidate must lead the
	// runner-up; ambiguous matches wait for more boundaries instead of
	// guessing.
	matchMargin = 0.05
	// minBoundaries is the earliest boundary at which to attempt a
	// match; 1 would match on the very first interval.
	minBoundaries = 2
	// maxBoundaries gives up matching after this many boundaries: a
	// session that far in predicts cold soon anyway, and late warm
	// starts would overwrite real learned history.
	maxBoundaries = 128
)

// Config bounds and tunes a Store.
type Config struct {
	// Cap is the maximum number of entries; contribution past it
	// evicts the lowest-scored entry (least recently touched, with
	// warm-start hits extending life). 0 means 1024.
	Cap int
	// Threshold is the minimum containment score (how much of a
	// session's grammar mass the stored grammar covers) for a match.
	// 0 means DefaultThreshold.
	Threshold float64
}

// DefaultCap bounds the store when Config.Cap is zero.
const DefaultCap = 1024

func (c Config) withDefaults() Config {
	if c.Cap == 0 {
		c.Cap = DefaultCap
	}
	if c.Threshold == 0 {
		c.Threshold = DefaultThreshold
	}
	return c
}

// hitBonus is how many clock ticks one warm-start hit is worth when
// choosing an eviction victim.
const hitBonus = 8

// Stats is a point-in-time view of the store's counters.
type Stats struct {
	Entries    int   `json:"entries"`
	Bytes      int64 `json:"bytes"`   // serialized snapshot size
	Hits       int64 `json:"hits"`    // sessions warm-started from the store
	Misses     int64 `json:"misses"`  // sessions that gave up without a match
	Lookups    int64 `json:"lookups"` // match attempts
	Evictions  int64 `json:"evictions"`
	Boundaries int64 `json:"boundaries"` // total boundaries behind the stored knowledge
}

// Store is the concurrent fingerprint → knowledge map. All methods are
// safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	cfg     Config
	entries map[uint64]*Knowledge
	clock   int64

	hits      int64
	misses    int64
	lookups   int64
	evictions int64
	bytes     int64

	// Backing file, set by Open; empty for in-memory stores.
	path string
	fs   faultfs.FS
}

// NewStore returns an empty store.
func NewStore(cfg Config) *Store {
	return &Store{
		cfg:     cfg.withDefaults(),
		entries: make(map[uint64]*Knowledge),
	}
}

// Len returns the number of entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// minContainLength is the minimum session grammar length (terms) for
// distribution containment to participate in match scoring.
const minContainLength = 8

// Query is what a session presents for matching: its grammar digest
// and the ordered prefix of terms behind it.
type Query struct {
	Grammar sequitur.Compact
	Prefix  []int
}

// MatchResult is a successful Lookup.
type MatchResult struct {
	Knowledge Knowledge // deep copy; callers may mutate freely
	Score     float64
}

// score combines the two match signals against one entry. Prefix
// agreement — the fraction of the session's terms equal, position by
// position, to the entry's stored prefix — identifies a returning
// program within two or three boundaries, because a re-execution
// replays an identical term sequence. Importance-weighted containment
// catches the fuzzier case (longer session, jittered rhythm) once the
// session's term distribution has mass to compare. The score is the
// better of the two.
func (s *Store) score(q Query, e *Knowledge) float64 {
	// Containment compares term-mass distributions, which means
	// nothing until the session's grammar has some mass: a one-term
	// grammar is "contained" in any donor that features the term. Gate
	// it on grammar length; before that only prefix agreement counts.
	var best float64
	if q.Grammar.Length >= minContainLength {
		best = q.Grammar.Containment(e.Grammar)
	}
	n := len(q.Prefix)
	if n > len(e.Prefix) {
		n = len(e.Prefix)
	}
	// A single agreeing term is no evidence — unrelated programs can
	// share one boundary-interval bucket by chance; two in sequence
	// almost never do.
	if n >= 2 {
		matched := 0
		for i := 0; i < n; i++ {
			if q.Prefix[i] == e.Prefix[i] {
				matched++
			}
		}
		if p := float64(matched) / float64(len(q.Prefix)); p > best {
			best = p
		}
	}
	return best
}

// Lookup matches a session's (possibly early, partial) grammar
// against the store. It returns the best entry whose score clears the
// threshold and leads the runner-up by the margin (ambiguity means
// wait for more boundaries, not guess); exact fingerprint identity
// always matches. Lookup touches the entry's clock but does not count
// a hit — sessions report their final outcome through MarkHit/MarkMiss
// so the hit/miss counters mean warm-started and gave-up sessions, not
// per-boundary attempts.
func (s *Store) Lookup(q Query) (MatchResult, bool) {
	fp := q.Grammar.Fingerprint()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lookups++
	if e, ok := s.entries[fp]; ok {
		s.clock++
		e.Clock = s.clock
		return MatchResult{Knowledge: copyKnowledge(e), Score: 1}, true
	}
	var best, second float64
	var bestEntry *Knowledge
	for _, e := range s.entries {
		score := s.score(q, e)
		switch {
		case score > best:
			second = best
			best, bestEntry = score, e
		case score > second:
			second = score
		}
	}
	if bestEntry == nil || best < s.cfg.Threshold || best-second < matchMargin {
		return MatchResult{}, false
	}
	s.clock++
	bestEntry.Clock = s.clock
	return MatchResult{Knowledge: copyKnowledge(bestEntry), Score: best}, true
}

// MarkHit records that a session warm-started from the entry.
func (s *Store) MarkHit(fingerprint uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hits++
	if e, ok := s.entries[fingerprint]; ok {
		e.Hits++
	}
}

// MarkMiss records that a session gave up matching without a hit.
func (s *Store) MarkMiss() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.misses++
}

// Contribute folds one session's learned knowledge into the store. The
// fingerprint is derived from the grammar; an existing entry for the
// same program is replaced only by a contribution at least as rich
// (boundaries observed), and its warm-start hit count carries over.
// Past the cap, the lowest-scored entry is evicted.
func (s *Store) Contribute(k Knowledge) {
	k.Fingerprint = k.Grammar.Fingerprint()
	if len(k.Predictor.Phases) == 0 {
		return // nothing a warm start could use
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock++
	k.Clock = s.clock
	if old, ok := s.entries[k.Fingerprint]; ok {
		if k.Boundaries < old.Boundaries {
			old.Clock = s.clock // still a touch
			return
		}
		k.Hits = old.Hits
		s.entries[k.Fingerprint] = &k
		return
	}
	s.entries[k.Fingerprint] = &k
	for len(s.entries) > s.cfg.Cap {
		s.evictLocked()
	}
}

// evictLocked removes the entry with the lowest retention score.
func (s *Store) evictLocked() {
	var victim uint64
	lowest := int64(math.MaxInt64)
	for fp, e := range s.entries {
		score := e.Clock + e.Hits*hitBonus
		if score < lowest || (score == lowest && fp < victim) {
			lowest, victim = score, fp
		}
	}
	delete(s.entries, victim)
	s.evictions++
}

// Stats returns the current counters. Bytes reflects the last
// serialization (Snapshot, Persist, or restore); 0 before any.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Entries:   len(s.entries),
		Bytes:     s.bytes,
		Hits:      s.hits,
		Misses:    s.misses,
		Lookups:   s.lookups,
		Evictions: s.evictions,
	}
	for _, e := range s.entries {
		st.Boundaries += e.Boundaries
	}
	return st
}

// Summary is one entry's inspection view (no predictor payload).
type Summary struct {
	Fingerprint uint64  `json:"fingerprint"`
	Phases      int     `json:"phases"`
	Terms       int     `json:"grammar_terms"`
	Length      int64   `json:"grammar_length"`
	Boundaries  int64   `json:"boundaries"`
	Hits        int64   `json:"hits"`
	Clock       int64   `json:"clock"`
	TopShare    float64 `json:"top_term_share"`
}

// Summaries lists the entries sorted by fingerprint for inspection
// endpoints.
func (s *Store) Summaries() []Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Summary, 0, len(s.entries))
	for _, e := range s.entries {
		sum := Summary{
			Fingerprint: e.Fingerprint,
			Phases:      len(e.Predictor.Phases),
			Terms:       e.Grammar.Terms(),
			Length:      e.Grammar.Length,
			Boundaries:  e.Boundaries,
			Hits:        e.Hits,
			Clock:       e.Clock,
		}
		for t := range e.Grammar.Unigrams {
			if sh := e.Grammar.Importance(t); sh > sum.TopShare {
				sum.TopShare = sh
			}
		}
		out = append(out, sum)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fingerprint < out[j].Fingerprint })
	return out
}

// copyKnowledge deep-copies an entry so callers cannot alias store
// internals.
func copyKnowledge(e *Knowledge) Knowledge {
	k := *e
	k.Grammar = copyCompact(e.Grammar)
	k.Prefix = append([]int(nil), e.Prefix...)
	k.Predictor = copyState(e.Predictor)
	return k
}

func copyCompact(c sequitur.Compact) sequitur.Compact {
	out := sequitur.Compact{
		Unigrams: make(map[int]int64, len(c.Unigrams)),
		Digrams:  make(map[[2]int]int64, len(c.Digrams)),
		Length:   c.Length,
	}
	for k, v := range c.Unigrams {
		out.Unigrams[k] = v
	}
	for k, v := range c.Digrams {
		out.Digrams[k] = v
	}
	return out
}

func copyState(st predictor.State) predictor.State {
	out := st
	out.Phases = make([]predictor.PhaseState, len(st.Phases))
	for i, ps := range st.Phases {
		out.Phases[i] = predictor.PhaseState{
			ID:       ps.ID,
			Lengths:  append([]int64(nil), ps.Lengths...),
			Locality: append([]cache.Vector(nil), ps.Locality...),
			InstrSum: ps.InstrSum,
		}
	}
	out.Pending = append([]predictor.PendingState(nil), st.Pending...)
	return out
}

// keepLengths is how many trailing executions per phase a contribution
// retains: enough for Strict's repeat check and a stable locality
// signature, without unbounded growth.
const keepLengths = 4

// CompactState trims a predictor state down to what a warm start can
// use: the last keepLengths executions of each phase, no pending
// predictions, no scores. InstrSum is recomputed over the kept tail so
// the state stays self-consistent.
func CompactState(st predictor.State) predictor.State {
	out := predictor.State{Phases: make([]predictor.PhaseState, 0, len(st.Phases))}
	for _, ps := range st.Phases {
		n := len(ps.Lengths)
		if n == 0 || n != len(ps.Locality) {
			continue
		}
		start := n - keepLengths
		if start < 0 {
			start = 0
		}
		kept := predictor.PhaseState{
			ID:       ps.ID,
			Lengths:  append([]int64(nil), ps.Lengths[start:]...),
			Locality: append([]cache.Vector(nil), ps.Locality[start:]...),
		}
		for _, l := range kept.Lengths {
			kept.InstrSum += l
		}
		out.Phases = append(out.Phases, kept)
	}
	return out
}
