package knowledge

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"slices"

	"lpp/internal/codec"
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
	e := codec.Enc{Buf: []byte(snapMagic)}
	e.Num(snapVersion)
	e.I64(s.clock)
	e.I64(s.hits)
	e.I64(s.misses)
	e.I64(s.lookups)
	e.I64(s.evictions)
	e.Num(len(s.entries))
	for _, fp := range codec.SortedKeys(s.entries) {
		encKnowledge(&e, s.entries[fp])
	}
	e.Buf = codec.Seal(e.Buf)
	s.bytes = int64(len(e.Buf))
	return e.Buf
}

func encKnowledge(e *codec.Enc, k *Knowledge) {
	e.U64(k.Fingerprint)
	e.I64(k.Boundaries)
	e.I64(k.Hits)
	e.I64(k.Clock)
	e.Num(len(k.Prefix))
	for _, t := range k.Prefix {
		e.Num(t)
	}
	encCompact(e, k.Grammar)
	predictor.EncodePhases(e, k.Predictor.Phases)
}

func encCompact(e *codec.Enc, c sequitur.Compact) {
	e.I64(c.Length)
	e.Num(len(c.Unigrams))
	for _, t := range codec.SortedKeys(c.Unigrams) {
		e.Num(t)
		e.I64(c.Unigrams[t])
	}
	pairs := make([][2]int, 0, len(c.Digrams))
	for p := range c.Digrams {
		pairs = append(pairs, p)
	}
	slices.SortFunc(pairs, comparePairs)
	e.Num(len(pairs))
	for _, p := range pairs {
		e.Num(p[0])
		e.Num(p[1])
		e.I64(c.Digrams[p])
	}
}

// comparePairs orders digram pairs lexicographically.
func comparePairs(a, b [2]int) int {
	if c := cmp.Compare(a[0], b[0]); c != 0 {
		return c
	}
	return cmp.Compare(a[1], b[1])
}

// RestoreSnapshot replaces the store's contents and counters with the
// snapshot's. On any validation failure the store is left unchanged.
func (s *Store) RestoreSnapshot(data []byte) error {
	if len(data) < len(snapMagic)+4 || string(data[:len(snapMagic)]) != snapMagic {
		return fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	body, ok := codec.Unseal(data)
	if !ok {
		return fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	d := codec.NewDec(body[len(snapMagic):], ErrCorrupt)
	if v := d.Num(); d.Err() == nil && v != snapVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	clock := d.I64()
	hits := d.I64()
	misses := d.I64()
	lookups := d.I64()
	evictions := d.I64()
	n := d.Length(2)
	entries := make(map[uint64]*Knowledge, n)
	var prev uint64
	for i := 0; i < n && d.Err() == nil; i++ {
		k, err := decKnowledge(d)
		if err != nil {
			return err
		}
		if i > 0 && k.Fingerprint <= prev {
			return fmt.Errorf("%w: fingerprint %#x not above %#x", ErrCorrupt, k.Fingerprint, prev)
		}
		prev = k.Fingerprint
		entries[k.Fingerprint] = k
	}
	if err := d.Done(); err != nil {
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
	for _, fp := range codec.SortedKeys(src.entries) {
		s.Contribute(*src.entries[fp])
	}
	return nil
}

func decKnowledge(d *codec.Dec) (*Knowledge, error) {
	k := &Knowledge{
		Fingerprint: d.U64(),
		Boundaries:  d.I64(),
		Hits:        d.I64(),
		Clock:       d.I64(),
	}
	np := d.Length(1)
	if d.Err() == nil && np > PrefixTerms {
		d.Fail("prefix too long")
	}
	for i := 0; i < np && d.Err() == nil; i++ {
		k.Prefix = append(k.Prefix, d.Num())
	}
	k.Grammar = decCompact(d)
	k.Predictor = predictor.State{Phases: predictor.DecodePhases(d)}
	if err := d.Err(); err != nil {
		return nil, err
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

func decCompact(d *codec.Dec) sequitur.Compact {
	c := sequitur.Compact{Length: d.I64()}
	nu := d.Length(2)
	c.Unigrams = make(map[int]int64, nu)
	for i, t := 0, 0; i < nu && d.Err() == nil; i++ {
		t = d.Key(i, t)
		c.Unigrams[t] = d.I64()
	}
	nd := d.Length(3)
	c.Digrams = make(map[[2]int]int64, nd)
	var prev [2]int
	for i := 0; i < nd && d.Err() == nil; i++ {
		p := [2]int{d.Num(), d.Num()}
		if i > 0 && comparePairs(p, prev) <= 0 {
			d.Fail("digram pairs not ascending")
			break
		}
		prev = p
		c.Digrams[p] = d.I64()
	}
	return c
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
// (faultfs.WriteFileAtomic, synced). It is a no-op for stores without
// a path.
func (s *Store) Persist() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.path == "" {
		return nil
	}
	if err := faultfs.WriteFileAtomic(s.fs, s.path, s.snapshotLocked(), true); err != nil {
		return fmt.Errorf("knowledge: persist: %w", err)
	}
	return nil
}

// Path returns the backing file path ("" for in-memory stores).
func (s *Store) Path() string { return s.path }
