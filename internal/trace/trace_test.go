package trace

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Block(1, 10)
	c.Access(0x100)
	c.Access(0x108)
	c.Block(2, 5)
	c.Access(0x100)
	if c.Blocks != 2 {
		t.Errorf("Blocks = %d, want 2", c.Blocks)
	}
	if c.Instructions != 15 {
		t.Errorf("Instructions = %d, want 15", c.Instructions)
	}
	if c.Accesses != 3 {
		t.Errorf("Accesses = %d, want 3", c.Accesses)
	}
}

func TestTeeForwardsInOrder(t *testing.T) {
	a := NewRecorder(0, 0)
	b := NewRecorder(0, 0)
	tee := Tee{a, b}
	tee.Block(7, 3)
	tee.Access(0x40)
	tee.Access(0x80)
	for _, r := range []*Recorder{a, b} {
		if len(r.T.Blocks) != 1 || r.T.Blocks[0].ID != 7 {
			t.Fatalf("blocks = %+v, want one block 7", r.T.Blocks)
		}
		if len(r.T.Accesses) != 2 || r.T.Accesses[0] != 0x40 || r.T.Accesses[1] != 0x80 {
			t.Fatalf("accesses = %v, want [0x40 0x80]", r.T.Accesses)
		}
	}
}

func TestRecorderIndices(t *testing.T) {
	r := NewRecorder(4, 2)
	r.Block(1, 4)
	r.Access(1)
	r.Access(2)
	r.Block(2, 6)
	r.Access(3)
	bs := r.T.Blocks
	if bs[0].AccessIndex != 0 || bs[1].AccessIndex != 2 {
		t.Errorf("access indices = %d,%d, want 0,2", bs[0].AccessIndex, bs[1].AccessIndex)
	}
	if bs[0].InstrIndex != 0 || bs[1].InstrIndex != 4 {
		t.Errorf("instr indices = %d,%d, want 0,4", bs[0].InstrIndex, bs[1].InstrIndex)
	}
	if r.T.Instructions != 10 {
		t.Errorf("Instructions = %d, want 10", r.T.Instructions)
	}
}

func TestReplayRoundTrip(t *testing.T) {
	f := func(lead uint8, blocks []uint8, accessesPerBlock []uint8) bool {
		// Build a random but well-formed run, with or without accesses
		// before the first block.
		src := NewRecorder(0, 0)
		n := len(blocks)
		if len(accessesPerBlock) < n {
			n = len(accessesPerBlock)
		}
		addr := Addr(0)
		for j := 0; j < int(lead%4); j++ {
			src.Access(addr)
			addr += 8
		}
		for i := 0; i < n; i++ {
			src.Block(BlockID(blocks[i]), int(accessesPerBlock[i])+1)
			for j := 0; j < int(accessesPerBlock[i]%5); j++ {
				src.Access(addr)
				addr += 8
			}
		}
		dst := NewRecorder(0, 0)
		src.T.Replay(dst)
		if len(dst.T.Blocks) != len(src.T.Blocks) || len(dst.T.Accesses) != len(src.T.Accesses) {
			return false
		}
		for i := range src.T.Blocks {
			if src.T.Blocks[i] != dst.T.Blocks[i] {
				return false
			}
		}
		for i := range src.T.Accesses {
			if src.T.Accesses[i] != dst.T.Accesses[i] {
				return false
			}
		}
		return src.T.Instructions == dst.T.Instructions
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestReplayAccessBeforeFirstBlock: an access recorded before the first
// block is replayed before it, so the block keeps AccessIndex 1.
func TestReplayAccessBeforeFirstBlock(t *testing.T) {
	src := NewRecorder(0, 0)
	src.Access(0x40)
	src.Block(7, 3)
	src.Access(0x80)
	dst := NewRecorder(0, 0)
	src.T.Replay(dst)
	if !slices.Equal(dst.T.Blocks, src.T.Blocks) || !slices.Equal(dst.T.Accesses, src.T.Accesses) {
		t.Errorf("replayed %+v %v, recorded %+v %v", dst.T.Blocks, dst.T.Accesses, src.T.Blocks, src.T.Accesses)
	}
	want := []Event{{Kind: EventAccess, Addr: 0x40}, {Kind: EventBlock, Block: 7, Instrs: 3}, {Kind: EventAccess, Addr: 0x80}}
	if got := src.T.Events(); !slices.Equal(got, want) {
		t.Errorf("Events = %+v, want %+v", got, want)
	}
}

// TestEventsMatchReplay: Events, the stream Replay feeds, is exactly
// the stream that was recorded, in order, on runs with and without
// accesses before the first block.
func TestEventsMatchReplay(t *testing.T) {
	f := func(lead uint8, blocks []uint8, accessesPerBlock []uint8) bool {
		src := NewRecorder(0, 0)
		var want []Event
		record := func(e Event) {
			e.Feed(src)
			want = append(want, e)
		}
		addr := Addr(0)
		for j := 0; j < int(lead%4); j++ {
			record(Event{Kind: EventAccess, Addr: addr})
			addr += 8
		}
		for i := 0; i < min(len(blocks), len(accessesPerBlock)); i++ {
			record(Event{Kind: EventBlock, Block: BlockID(blocks[i]), Instrs: int(accessesPerBlock[i]) + 1})
			for j := 0; j < int(accessesPerBlock[i]%5); j++ {
				record(Event{Kind: EventAccess, Addr: addr})
				addr += 8
			}
		}
		return slices.Equal(src.T.Events(), want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockFrequency(t *testing.T) {
	r := NewRecorder(0, 0)
	for i := 0; i < 3; i++ {
		r.Block(1, 1)
		r.Block(2, 1)
	}
	r.Block(2, 1)
	freq := r.T.BlockFrequency()
	if freq[1] != 3 || freq[2] != 4 {
		t.Errorf("freq = %v, want 1:3 2:4", freq)
	}
}

func TestRunnerFunc(t *testing.T) {
	var c Counter
	RunnerFunc(func(ins Instrumenter) {
		ins.Block(1, 2)
		ins.Access(0)
	}).Run(&c)
	if c.Blocks != 1 || c.Accesses != 1 {
		t.Errorf("counter = %+v", c)
	}
}
