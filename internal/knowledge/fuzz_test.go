package knowledge

import (
	"bytes"
	"errors"
	"testing"

	"lpp/internal/codec"
	"lpp/internal/phase"
	"lpp/internal/predictor"
)

// fuzzSeed builds a realistic populated-store snapshot for seeding.
func fuzzSeed() []byte {
	s := NewStore(Config{})
	s.Contribute(knowledgeOf(16, 1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4))
	s.Contribute(knowledgeOf(9, 7, 7, 7, 7, 7, 7))
	s.MarkHit(grammarOf(7, 7, 7, 7, 7, 7).Fingerprint())
	s.MarkMiss()
	return s.Snapshot()
}

// FuzzRestoreSnapshot asserts the knowledge snapshot codec never
// panics and never partially applies: any input RestoreSnapshot
// accepts must re-serialize to exactly the accepted bytes, and any
// rejected input must leave the store untouched — torn tails,
// truncations, and CRC corruption all refuse cleanly.
func FuzzRestoreSnapshot(f *testing.F) {
	valid := fuzzSeed()
	f.Add(valid)
	for cut := 0; cut < len(valid); cut += 1 + cut/8 {
		f.Add(valid[:cut]) // truncations, including mid-header
	}
	flip := append([]byte(nil), valid...)
	flip[len(flip)/2] ^= 0x08
	f.Add(flip)
	torn := append([]byte(nil), valid[:len(valid)-3]...)
	f.Add(torn)
	skew := append([]byte(nil), valid...)
	skew[6] = '9' // version-skewed magic ("LPPKNW9")
	f.Add(skew)
	f.Add([]byte(snapMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewStore(Config{})
		s.Contribute(knowledgeOf(5, 2, 2, 2, 2))
		before := s.Snapshot()
		err := s.RestoreSnapshot(data)
		if err != nil {
			// Rejected: the store must be exactly as it was.
			if !bytes.Equal(s.Snapshot(), before) {
				t.Fatalf("rejected snapshot partially applied")
			}
			return
		}
		// Accepted: restore must be lossless and stable.
		if !bytes.Equal(s.Snapshot(), data) {
			t.Fatalf("accepted snapshot does not round-trip")
		}
	})
}

// consumerSeed returns a knowledge consumer after a warm-start session:
// settled, matched, with an early capture and a grown grammar.
func consumerSeed(t testing.TB) *Consumer {
	store := NewStore(Config{})
	feed := func(kc *Consumer, pc *phase.PredictorConsumer, n int) {
		for i := 1; i <= n; i++ {
			ev := phase.Event{Kind: phase.BoundaryDetected, Time: rampTimes(i) * int64(i), Phase: i % 3}
			if err := kc.Consume(ev); err != nil {
				t.Fatal(err)
			}
			if err := pc.Consume(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	train := phase.NewPredictorConsumer(predictor.Strict)
	trainKC := NewConsumer(nil, train)
	feed(trainKC, train, 2*captureBoundaries)
	entry, ok := trainKC.Entry()
	if !ok {
		t.Fatal("training session produced no entry")
	}
	store.Contribute(entry)
	pc := phase.NewPredictorConsumer(predictor.Strict)
	kc := NewConsumer(store, pc)
	feed(kc, pc, 2*captureBoundaries)
	if !kc.done || !kc.earlySet {
		t.Fatalf("seed session not settled (done=%v earlySet=%v)", kc.done, kc.earlySet)
	}
	return kc
}

// flagOffsets locates the Num-encoded flags of c's state: done,
// earlySet and the first grammar symbol's Terminal.
func flagOffsets(c *Consumer) map[string]int {
	var e codec.Enc
	e.Num(consumerSnapVersion)
	e.I64(c.terms)
	e.I64(c.boundaries)
	e.I64(c.lastTime)
	off := map[string]int{"done": len(e.Buf)}
	e.NumFlag(c.done)
	e.U64(c.matched)
	e.F64(c.score)
	off["earlySet"] = len(e.Buf)
	e.NumFlag(c.earlySet)
	predictor.EncodePhases(&e, c.early.Phases)
	st := c.b.State()
	e.Num(st.NextID)
	e.Num(len(st.Rules))
	e.Num(st.Rules[0].ID)
	e.Num(len(st.Rules[0].Body))
	off["terminal"] = len(e.Buf)
	return off
}

// withFlag2 returns a copy of state with the Num flag at off set to 2.
func withFlag2(state []byte, off int) []byte {
	bad := append([]byte(nil), state...)
	bad[off] = 0x04
	return bad
}

// TestConsumerRestoreRejectsUnwrittenBytes pins that every Num flag of
// the consumer state must be exactly 0 or 1: a state carrying a 2 was
// once restored and re-snapshotted as 1.
func TestConsumerRestoreRejectsUnwrittenBytes(t *testing.T) {
	c := consumerSeed(t)
	valid := c.Snapshot()
	for name, off := range flagOffsets(c) {
		if valid[off] > 0x02 {
			t.Fatalf("%s: offset %d holds %#x, not a Num flag", name, off, valid[off])
		}
		if err := NewConsumer(nil, nil).Restore(withFlag2(valid, off)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s = 2: Restore = %v, want ErrCorrupt", name, err)
		}
	}
}

// FuzzConsumerRestore asserts the knowledge consumer's state codec
// takes exactly the bytes its encoder writes: an accepted input must
// re-snapshot to exactly the input, and a rejected one must leave the
// consumer's state untouched. The state carries no CRC (the chain image
// seals it), so the fuzzer reaches every field.
func FuzzConsumerRestore(f *testing.F) {
	seed := consumerSeed(f)
	valid := seed.Snapshot()
	f.Add(valid)
	for cut := 0; cut < len(valid); cut += 1 + cut/4 {
		f.Add(valid[:cut])
	}
	f.Add(NewConsumer(nil, nil).Snapshot())
	for _, off := range flagOffsets(seed) {
		f.Add(withFlag2(valid, off))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		kc := NewConsumer(nil, nil)
		for i := 1; i <= 5; i++ {
			kc.Consume(phase.Event{Kind: phase.BoundaryDetected, Time: int64(i) * 700, Phase: i % 2})
		}
		before := kc.Snapshot()
		if err := kc.Restore(data); err != nil {
			if !bytes.Equal(kc.Snapshot(), before) {
				t.Fatalf("rejected state partially applied: %v", err)
			}
			return
		}
		if got := kc.Snapshot(); !bytes.Equal(got, data) {
			t.Fatalf("accepted state re-snapshots as\n%x\nnot\n%x", got, data)
		}
	})
}
