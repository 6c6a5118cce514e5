package knowledge

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lpp/internal/cache"
	"lpp/internal/phase"
	"lpp/internal/predictor"
	"lpp/internal/sequitur"
)

// grammarOf builds a Compact from a terminal sequence.
func grammarOf(seq ...int) sequitur.Compact {
	return sequitur.Build(seq).Compact()
}

// knowledgeOf builds a minimal valid contribution over the sequence.
func knowledgeOf(boundaries int64, seq ...int) Knowledge {
	g := grammarOf(seq...)
	prefix := seq
	if len(prefix) > PrefixTerms {
		prefix = prefix[:PrefixTerms]
	}
	return Knowledge{
		Grammar: g,
		Prefix:  append([]int(nil), prefix...),
		Predictor: predictor.State{Phases: []predictor.PhaseState{{
			ID:       0,
			Lengths:  []int64{100, 100},
			Locality: []cache.Vector{{}, {}},
			InstrSum: 200,
		}}},
		Boundaries: boundaries,
	}
}

func TestStoreLookupExactAndFuzzy(t *testing.T) {
	s := NewStore(Config{})
	full := []int{1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4}
	s.Contribute(knowledgeOf(16, full...))
	other := []int{9, 9, 9, 9, 9, 9}
	s.Contribute(knowledgeOf(6, other...))

	// Exact fingerprint match.
	if m, ok := s.Lookup(Query{Grammar: grammarOf(full...)}); !ok || m.Score != 1 {
		t.Fatalf("exact lookup failed: %+v ok=%v", m, ok)
	}
	// Early prefix of the same program with enough distribution mass
	// (>= minContainLength terms): containment match.
	m, ok := s.Lookup(Query{Grammar: grammarOf(full[:8]...)})
	if !ok {
		t.Fatalf("prefix lookup missed")
	}
	if want := grammarOf(full...).Fingerprint(); m.Knowledge.Fingerprint != want {
		t.Fatalf("prefix matched %#x, want %#x", m.Knowledge.Fingerprint, want)
	}
	// A short session is below the containment mass gate, so it must
	// not fuzzy-match on distribution alone...
	if _, ok := s.Lookup(Query{Grammar: grammarOf(full[:2]...)}); ok {
		t.Fatalf("two-term grammar matched by containment alone")
	}
	// ...but exact positional prefix agreement identifies the program.
	m, ok = s.Lookup(Query{Grammar: grammarOf(full[:2]...), Prefix: full[:2]})
	if !ok || m.Score != 1 {
		t.Fatalf("two-term prefix lookup failed: %+v ok=%v", m, ok)
	}
	if want := grammarOf(full...).Fingerprint(); m.Knowledge.Fingerprint != want {
		t.Fatalf("two-term prefix matched %#x, want %#x", m.Knowledge.Fingerprint, want)
	}
	// A disjoint program must not match.
	if _, ok := s.Lookup(Query{Grammar: grammarOf(7, 8, 7, 8), Prefix: []int{7, 8, 7, 8}}); ok {
		t.Fatalf("disjoint grammar matched")
	}
	st := s.Stats()
	if st.Entries != 2 || st.Lookups != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreContributeMergeAndEvict(t *testing.T) {
	s := NewStore(Config{Cap: 2})
	a := knowledgeOf(10, 1, 1, 1, 1)
	s.Contribute(a)
	s.MarkHit(a.Grammar.Fingerprint())

	// A poorer contribution for the same program must not replace the
	// richer one.
	poor := knowledgeOf(3, 1, 1, 1, 1)
	poor.Predictor.Phases[0].Lengths = []int64{5}
	poor.Predictor.Phases[0].Locality = poor.Predictor.Phases[0].Locality[:1]
	poor.Predictor.Phases[0].InstrSum = 5
	s.Contribute(poor)
	m, ok := s.Lookup(Query{Grammar: a.Grammar})
	if !ok || m.Knowledge.Boundaries != 10 {
		t.Fatalf("richer entry was replaced: %+v", m.Knowledge)
	}
	// A richer one must replace, carrying hits over.
	rich := knowledgeOf(20, 1, 1, 1, 1)
	s.Contribute(rich)
	m, _ = s.Lookup(Query{Grammar: a.Grammar})
	if m.Knowledge.Boundaries != 20 || m.Knowledge.Hits != 1 {
		t.Fatalf("rich merge lost state: %+v", m.Knowledge)
	}

	// Cap 2: a third program evicts the least-valuable entry (entry b,
	// never hit, older clock than c).
	s.Contribute(knowledgeOf(5, 2, 2, 2, 2))
	s.Contribute(knowledgeOf(5, 3, 3, 3, 3))
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}
	if s.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Stats().Evictions)
	}
	// The hit entry (program 1) must have survived.
	if _, ok := s.Lookup(Query{Grammar: a.Grammar}); !ok {
		t.Fatalf("hit entry was evicted before unhit ones")
	}
}

func TestStoreContributeRejectsEmpty(t *testing.T) {
	s := NewStore(Config{})
	s.Contribute(Knowledge{Grammar: grammarOf(1, 2, 3)})
	if s.Len() != 0 {
		t.Fatalf("empty predictor contribution accepted")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := NewStore(Config{})
	s.Contribute(knowledgeOf(12, 1, 2, 1, 2, 1, 2))
	s.Contribute(knowledgeOf(7, 5, 6, 7, 5, 6, 7))
	s.MarkHit(grammarOf(1, 2, 1, 2, 1, 2).Fingerprint())
	s.MarkMiss()

	snap := s.Snapshot()
	r := NewStore(Config{})
	if err := r.RestoreSnapshot(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !bytes.Equal(r.Snapshot(), snap) {
		t.Fatalf("snapshot not stable across restore")
	}
	if got, want := r.Stats(), s.Stats(); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	s := NewStore(Config{})
	s.Contribute(knowledgeOf(12, 1, 2, 1, 2, 1, 2))
	snap := s.Snapshot()

	cases := map[string][]byte{
		"empty":     {},
		"short":     snap[:4],
		"magic":     append([]byte("XXXXXXX"), snap[7:]...),
		"truncated": snap[:len(snap)-5],
		"torn tail": snap[:len(snap)-1],
	}
	flipped := append([]byte(nil), snap...)
	flipped[len(flipped)/2] ^= 0x40
	cases["bitflip"] = flipped
	grown := append(append([]byte(nil), snap...), 0, 0, 0)
	cases["trailing"] = grown

	for name, data := range cases {
		r := NewStore(Config{})
		err := r.RestoreSnapshot(data)
		if err == nil {
			t.Fatalf("%s: corruption accepted", name)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: error %v does not wrap ErrCorrupt", name, err)
		}
		if r.Len() != 0 {
			t.Fatalf("%s: corrupt snapshot partially applied", name)
		}
	}
}

// TestMergeSnapshotKeepsOwnEntries: merging another store's snapshot
// adds its entries through Contribute and leaves this store's own
// entries and counters in place; a corrupt snapshot changes nothing.
func TestMergeSnapshotKeepsOwnEntries(t *testing.T) {
	src := NewStore(Config{})
	src.Contribute(knowledgeOf(16, 1, 2, 3, 4, 1, 2, 3, 4))
	src.Contribute(knowledgeOf(6, 7, 8, 7, 8, 7, 8))
	dst := NewStore(Config{})
	dst.Contribute(knowledgeOf(9, 5, 5, 6, 5, 5, 6))
	dst.MarkMiss()

	if err := dst.MergeSnapshot(src.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 3 || dst.Stats().Misses != 1 {
		t.Fatalf("after merge: %d entries, %d misses; want 3 and the store's own 1", dst.Len(), dst.Stats().Misses)
	}
	for fp, want := range src.entries {
		got := *dst.entries[fp]
		got.Clock = want.Clock // clocks are each store's own
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("merged entry %#x differs from the source's", fp)
		}
	}
	before := dst.Snapshot()
	corrupt := src.Snapshot()
	corrupt[len(corrupt)/2] ^= 0xff
	if err := dst.MergeSnapshot(corrupt); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt merge error = %v, want ErrCorrupt", err)
	}
	if !bytes.Equal(dst.Snapshot(), before) {
		t.Fatal("a corrupt snapshot changed the store")
	}
}

func TestOpenPersistReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "knowledge", "store.bin")
	s, err := Open(path, nil, Config{})
	if err != nil {
		t.Fatalf("open fresh: %v", err)
	}
	s.Contribute(knowledgeOf(9, 4, 5, 4, 5, 4, 5))
	if err := s.Persist(); err != nil {
		t.Fatalf("persist: %v", err)
	}
	want := s.Snapshot()

	r, err := Open(path, nil, Config{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if !bytes.Equal(r.Snapshot(), want) {
		t.Fatalf("reloaded store differs from persisted one")
	}

	// Corrupt the file: Open must refuse, not half-load.
	data := append([]byte(nil), want...)
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, nil, Config{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt file open: %v, want ErrCorrupt", err)
	}
}

// rampTimes mimics the golden workloads' shape: the first phase
// execution spans a long setup ramp, later ones settle into a steady
// rhythm. The cold Strict predictor therefore needs boundary 4 (two
// equal steady lengths) while a warm-started one predicts at 3.
func rampTimes(i int) int64 {
	if i <= 1 {
		return 1000
	}
	return 6000 + int64(i-2)*1000
}

func TestConsumerWarmStartFlow(t *testing.T) {
	store := NewStore(Config{})
	train := phase.NewPredictorConsumer(predictor.Strict)
	trainKC := NewConsumer(nil, train)
	feed := func(pc *phase.PredictorConsumer, kc *Consumer, n int) {
		for i := 1; i <= n; i++ {
			ev := phase.Event{
				Kind:         phase.BoundaryDetected,
				Time:         rampTimes(i),
				Instructions: rampTimes(i),
				Phase:        0,
			}
			if err := kc.Consume(ev); err != nil {
				t.Fatal(err)
			}
			if err := pc.Consume(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(train, trainKC, 12)
	entry, ok := trainKC.Entry()
	if !ok {
		t.Fatalf("training session produced no entry")
	}
	store.Contribute(entry)

	// Replay: a new session with the same rhythm must warm-start and
	// predict strictly earlier than the cold baseline.
	firstPred := func(s *Store) int {
		pc := phase.NewPredictorConsumer(predictor.Strict)
		kc := NewConsumer(s, pc)
		for i := 1; i <= 12; i++ {
			ev := phase.Event{
				Kind:         phase.BoundaryDetected,
				Time:         rampTimes(i),
				Instructions: rampTimes(i),
				Phase:        0,
			}
			if err := kc.Consume(ev); err != nil {
				t.Fatal(err)
			}
			if err := pc.Consume(ev); err != nil {
				t.Fatal(err)
			}
			if pc.Predictor().Predictions() > 0 {
				return i
			}
		}
		return -1
	}
	cold := firstPred(NewStore(Config{}))
	warm := firstPred(store)
	if warm < 0 || cold < 0 {
		t.Fatalf("no predictions: warm=%d cold=%d", warm, cold)
	}
	if warm >= cold {
		t.Fatalf("warm first prediction at boundary %d, cold at %d: no lift", warm, cold)
	}
	if store.Stats().Hits != 1 {
		t.Fatalf("hits = %d, want 1", store.Stats().Hits)
	}
}

func TestConsumerSnapshotRoundTrip(t *testing.T) {
	store := NewStore(Config{})
	pc := phase.NewPredictorConsumer(predictor.Strict)
	kc := NewConsumer(store, pc)
	for i := 1; i <= 7; i++ {
		ev := phase.Event{
			Kind:         phase.BoundaryDetected,
			Time:         int64(i) * 500,
			Instructions: int64(i) * 500,
			Phase:        i % 2,
		}
		if err := kc.Consume(ev); err != nil {
			t.Fatal(err)
		}
	}
	snap := kc.Snapshot()
	restored := NewConsumer(store, pc)
	if err := restored.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !bytes.Equal(restored.Snapshot(), snap) {
		t.Fatalf("consumer snapshot not stable across restore")
	}
	if restored.Fingerprint() != kc.Fingerprint() {
		t.Fatalf("restored fingerprint differs")
	}
	if err := restored.Restore(snap[:len(snap)-2]); err == nil {
		t.Fatalf("truncated consumer snapshot accepted")
	}
}

func TestWarmStartRefusedAfterPredictions(t *testing.T) {
	pc := phase.NewPredictorConsumer(predictor.Strict)
	// Drive the predictor until it predicts cold (3 equal executions).
	for i := 1; i <= 4; i++ {
		ev := phase.Event{
			Kind:         phase.BoundaryDetected,
			Time:         int64(i) * 1000,
			Instructions: int64(i) * 1000,
			Phase:        0,
		}
		if err := pc.Consume(ev); err != nil {
			t.Fatal(err)
		}
	}
	if pc.Predictor().Predictions() == 0 {
		t.Fatalf("predictor never predicted cold")
	}
	err := pc.WarmStart(predictor.State{Phases: []predictor.PhaseState{{
		ID: 0, Lengths: []int64{1}, Locality: []cache.Vector{{}},
	}}})
	if err == nil {
		t.Fatalf("warm start accepted after predictions")
	}
}
