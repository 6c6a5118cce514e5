package online

import (
	"math/rand"
	"testing"

	"lpp/internal/predictor"
	"lpp/internal/regexphase"
)

// checkMemoMatchesFresh grows a phase sequence one symbol at a time
// through a hierarchy with a small grammar cap, and at every step holds
// the memoized prediction (hierarchy.predictNext) to one from a fresh
// compile of the same grammar, walked through the same tail. It returns
// how many times the memo emptied itself on reaching its budget.
func checkMemoMatchesFresh(t *testing.T, maxGrammar, tail int, seq []int) (evictions int) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MaxGrammar, cfg.PhaseTail = maxGrammar, tail
	h := newHierarchy(cfg.withDefaults())
	for step, p := range seq {
		h.record(p)
		got, gotOK := h.predictNext()

		g := h.builder.Grammar()
		fresh := regexphase.FromGrammar(g)
		np := predictor.NewNextPhase(fresh)
		for _, q := range h.tail {
			np.Observe(q)
		}
		want, wantOK := np.Predict()
		if got != want || gotOK != wantOK {
			t.Fatalf("step %d (grammar %v): memoized predicts (%d, %v), fresh (%d, %v)",
				step, fresh, got, gotOK, want, wantOK)
		}
		if memo := h.memo.FromGrammar(g); memo.String() != fresh.String() {
			t.Fatalf("step %d: memoized hierarchy %v, fresh %v", step, memo, fresh)
		}
	}
	return h.memo.Resets()
}

// FuzzHierarchyMemoMatchesFresh drives checkMemoMatchesFresh with
// fuzzed phase sequences: the first byte picks the grammar cap (small,
// so restarts are frequent and the memo, bounded in proportion to the
// cap, fills and evicts), the second the alphabet size, and the rest
// the phase IDs.
func FuzzHierarchyMemoMatchesFresh(f *testing.F) {
	f.Add([]byte{4, 3, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2})
	f.Add([]byte{0, 5, 0, 1, 1, 2, 3, 0, 1, 1, 2, 3, 4, 4, 4, 0, 1, 1, 2, 3})
	f.Add([]byte{12, 2, 0, 0, 1, 0, 0, 1, 0, 0, 0, 1, 1, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		maxGrammar := 6 + int(data[0])%40
		alphabet := 1 + int(data[1])%8
		seq := make([]int, 0, len(data)-2)
		for _, b := range data[2:] {
			seq = append(seq, int(b)%alphabet)
		}
		checkMemoMatchesFresh(t, maxGrammar, 2*maxGrammar, seq)
	})
}

// TestHierarchyMemoEvictsAndMatchesFresh runs long sequences — nested
// periodic ones like the paper's time steps, with random deviations,
// and pure noise — through a cap small enough that the memo fills and
// evicts, and requires that it did.
func TestHierarchyMemoEvictsAndMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var periodic, noise []int
	for len(periodic) < 800 {
		for step := 0; step < 1+rng.Intn(6); step++ {
			periodic = append(periodic, 0, 1, 2, 1, 3)
		}
		if rng.Intn(3) == 0 {
			periodic = append(periodic, 4+rng.Intn(4))
		}
	}
	for len(noise) < 400 {
		noise = append(noise, rng.Intn(6))
	}
	evictions := 0
	for _, c := range []struct {
		maxGrammar int
		seq        []int
	}{{64, periodic}, {16, periodic}, {32, noise}, {8, noise}} {
		n := checkMemoMatchesFresh(t, c.maxGrammar, 2*c.maxGrammar, c.seq)
		t.Logf("cap %d, %d symbols: %d evictions", c.maxGrammar, len(c.seq), n)
		evictions += n
	}
	if evictions == 0 {
		t.Error("the memo never reached its budget: eviction went untested")
	}
}
