package knowledge

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"lpp/internal/cache"
	"lpp/internal/faultfs"
	"lpp/internal/predictor"
	"lpp/internal/sequitur"
)

// Snapshot layout: magic, body, CRC32 trailer over magic+body. The
// body is fully deterministic (entries sorted by fingerprint, maps
// serialized in sorted order), so equal stores serialize to equal
// bytes — the property the byte-identical recovery guarantee rests on.
const (
	snapMagic   = "LPPKNW1"
	snapVersion = 1
)

// ErrCorrupt marks a knowledge snapshot that failed validation; it is
// never partially applied.
var ErrCorrupt = errors.New("knowledge: snapshot corrupt")

// Snapshot serializes the whole store.
func (s *Store) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

func (s *Store) snapshotLocked() []byte {
	var e enc
	e.buf = append(e.buf, snapMagic...)
	e.num(snapVersion)
	e.i64(s.clock)
	e.i64(s.hits)
	e.i64(s.misses)
	e.i64(s.lookups)
	e.i64(s.evictions)
	fps := make([]uint64, 0, len(s.entries))
	for fp := range s.entries {
		fps = append(fps, fp)
	}
	sortU64(fps)
	e.num(len(fps))
	for _, fp := range fps {
		encKnowledge(&e, s.entries[fp])
	}
	e.buf = binary.LittleEndian.AppendUint32(e.buf, crc32.ChecksumIEEE(e.buf))
	s.bytes = int64(len(e.buf))
	return e.buf
}

func encKnowledge(e *enc, k *Knowledge) {
	e.u64(k.Fingerprint)
	e.i64(k.Boundaries)
	e.i64(k.Hits)
	e.i64(k.Clock)
	e.num(len(k.Prefix))
	for _, t := range k.Prefix {
		e.num(t)
	}
	encCompact(e, k.Grammar)
	encState(e, k.Predictor)
}

func encCompact(e *enc, c sequitur.Compact) {
	e.i64(c.Length)
	terms := make([]int, 0, len(c.Unigrams))
	for t := range c.Unigrams {
		terms = append(terms, t)
	}
	sortInts(terms)
	e.num(len(terms))
	for _, t := range terms {
		e.num(t)
		e.i64(c.Unigrams[t])
	}
	pairs := make([][2]int, 0, len(c.Digrams))
	for p := range c.Digrams {
		pairs = append(pairs, p)
	}
	sortPairs(pairs)
	e.num(len(pairs))
	for _, p := range pairs {
		e.num(p[0])
		e.num(p[1])
		e.i64(c.Digrams[p])
	}
}

func encState(e *enc, st predictor.State) {
	e.num(len(st.Phases))
	for _, ps := range st.Phases {
		e.i64(ps.ID)
		e.num(len(ps.Lengths))
		for _, l := range ps.Lengths {
			e.i64(l)
		}
		for _, v := range ps.Locality {
			for _, f := range v {
				e.f64(f)
			}
		}
		e.i64(ps.InstrSum)
	}
}

// RestoreSnapshot replaces the store's contents and counters with the
// snapshot's. On any validation failure the store is left unchanged.
func (s *Store) RestoreSnapshot(data []byte) error {
	if len(data) < len(snapMagic)+4 || string(data[:len(snapMagic)]) != snapMagic {
		return fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	d := &dec{buf: body[len(snapMagic):]}
	if v := d.num(); d.err == nil && v != snapVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	clock := d.i64()
	hits := d.i64()
	misses := d.i64()
	lookups := d.i64()
	evictions := d.i64()
	n := d.length(2)
	entries := make(map[uint64]*Knowledge, n)
	for i := 0; i < n && d.err == nil; i++ {
		k, err := decKnowledge(d)
		if err != nil {
			return err
		}
		if _, dup := entries[k.Fingerprint]; dup {
			return fmt.Errorf("%w: duplicate fingerprint %#x", ErrCorrupt, k.Fingerprint)
		}
		entries[k.Fingerprint] = k
	}
	if err := d.done(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = entries
	s.clock = clock
	s.hits, s.misses, s.lookups, s.evictions = hits, misses, lookups, evictions
	s.bytes = int64(len(data))
	return nil
}

// MergeSnapshot folds every entry of another store's snapshot into this
// one through Contribute, so this store's own entries and counters
// survive. On any validation failure the store is left unchanged.
func (s *Store) MergeSnapshot(data []byte) error {
	src := NewStore(s.cfg)
	if err := src.RestoreSnapshot(data); err != nil {
		return err
	}
	fps := make([]uint64, 0, len(src.entries))
	for fp := range src.entries {
		fps = append(fps, fp)
	}
	sortU64(fps)
	for _, fp := range fps {
		s.Contribute(*src.entries[fp])
	}
	return nil
}

func decKnowledge(d *dec) (*Knowledge, error) {
	k := &Knowledge{
		Fingerprint: d.u64(),
		Boundaries:  d.i64(),
		Hits:        d.i64(),
		Clock:       d.i64(),
	}
	np := d.length(1)
	if d.err == nil && np > PrefixTerms {
		d.fail("prefix too long")
	}
	for i := 0; i < np && d.err == nil; i++ {
		k.Prefix = append(k.Prefix, d.num())
	}
	k.Grammar = decCompact(d)
	k.Predictor = decState(d)
	if d.err != nil {
		return nil, d.err
	}
	if k.Grammar.Fingerprint() != k.Fingerprint {
		return nil, fmt.Errorf("%w: fingerprint %#x does not match grammar", ErrCorrupt, k.Fingerprint)
	}
	for _, t := range k.Prefix {
		if _, ok := k.Grammar.Unigrams[t]; !ok {
			return nil, fmt.Errorf("%w: prefix term %d absent from grammar", ErrCorrupt, t)
		}
	}
	if _, err := predictor.NewFromState(predictor.Strict, k.Predictor); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return k, nil
}

func decCompact(d *dec) sequitur.Compact {
	c := sequitur.Compact{Length: d.i64()}
	nu := d.length(2)
	c.Unigrams = make(map[int]int64, nu)
	prev := math.MinInt
	for i := 0; i < nu && d.err == nil; i++ {
		t := d.num()
		if t <= prev {
			d.fail("unigram terms not ascending")
			break
		}
		prev = t
		c.Unigrams[t] = d.i64()
	}
	nd := d.length(3)
	c.Digrams = make(map[[2]int]int64, nd)
	prevPair := [2]int{math.MinInt, math.MinInt}
	for i := 0; i < nd && d.err == nil; i++ {
		p := [2]int{d.num(), d.num()}
		if p[0] < prevPair[0] || (p[0] == prevPair[0] && p[1] <= prevPair[1]) {
			d.fail("digram pairs not ascending")
			break
		}
		prevPair = p
		c.Digrams[p] = d.i64()
	}
	return c
}

func decState(d *dec) predictor.State {
	var st predictor.State
	n := d.length(2)
	for i := 0; i < n && d.err == nil; i++ {
		ps := predictor.PhaseState{ID: d.i64()}
		m := d.length(1)
		ps.Lengths = make([]int64, 0, m)
		for j := 0; j < m && d.err == nil; j++ {
			ps.Lengths = append(ps.Lengths, d.i64())
		}
		ps.Locality = make([]cache.Vector, 0, m)
		for j := 0; j < m && d.err == nil; j++ {
			var v cache.Vector
			for x := range v {
				v[x] = d.f64()
			}
			ps.Locality = append(ps.Locality, v)
		}
		ps.InstrSum = d.i64()
		st.Phases = append(st.Phases, ps)
	}
	return st
}

// Open returns a store backed by the file at path, loading existing
// contents if the file exists. A nil fsys uses the real filesystem.
// The parent directory is created as needed. Corruption is reported,
// never silently accepted.
func Open(path string, fsys faultfs.FS, cfg Config) (*Store, error) {
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	s := NewStore(cfg)
	s.path = path
	s.fs = fsys
	data, err := fsys.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return s, nil
	case err != nil:
		return nil, fmt.Errorf("knowledge: open %s: %w", path, err)
	}
	if err := s.RestoreSnapshot(data); err != nil {
		return nil, fmt.Errorf("knowledge: open %s: %w", path, err)
	}
	return s, nil
}

// Persist atomically writes the store's snapshot to its backing file
// (write temp + rename, the durable-layer idiom). It is a no-op for
// stores without a path.
func (s *Store) Persist() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.path == "" {
		return nil
	}
	data := s.snapshotLocked()
	dir := filepath.Dir(s.path)
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("knowledge: persist: %w", err)
	}
	tmp := s.path + ".tmp"
	f, err := s.fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("knowledge: persist: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("knowledge: persist: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("knowledge: persist: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("knowledge: persist: %w", err)
	}
	if err := s.fs.Rename(tmp, s.path); err != nil {
		return fmt.Errorf("knowledge: persist: %w", err)
	}
	return nil
}

// Path returns the backing file path ("" for in-memory stores).
func (s *Store) Path() string { return s.path }
