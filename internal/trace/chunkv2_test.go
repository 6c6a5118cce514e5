package trace

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// chunkCases covers the shapes the encoder must round-trip: empty,
// single-kind, interleaved, sweeps (RLE-friendly), and adversarial
// values at the edges of the wire types.
func chunkCases() map[string][]Event {
	mixed := []Event{
		{Kind: EventBlock, Block: 1, Instrs: 10},
		{Kind: EventAccess, Addr: 0x1000},
		{Kind: EventAccess, Addr: 0x1040},
		{Kind: EventBlock, Block: 2, Instrs: 10},
		{Kind: EventAccess, Addr: 0x20},
	}
	sweep := make([]Event, 0, 300)
	for i := 0; i < 100; i++ {
		sweep = append(sweep, Event{Kind: EventBlock, Block: BlockID(i), Instrs: 7})
		sweep = append(sweep, Event{Kind: EventAccess, Addr: Addr(0x4000 + 64*i)})
		sweep = append(sweep, Event{Kind: EventAccess, Addr: Addr(0x4000 + 64*i + 8)})
	}
	rng := rand.New(rand.NewSource(7))
	random := make([]Event, 777)
	for i := range random {
		if rng.Intn(3) == 0 {
			random[i] = Event{Kind: EventBlock, Block: BlockID(rng.Uint32()), Instrs: rng.Intn(1 << 20)}
		} else {
			random[i] = Event{Kind: EventAccess, Addr: Addr(rng.Uint64())}
		}
	}
	return map[string][]Event{
		"empty":       {},
		"one_access":  {{Kind: EventAccess, Addr: 42}},
		"one_block":   {{Kind: EventBlock, Block: 9, Instrs: 3}},
		"mixed":       mixed,
		"sweep":       sweep,
		"random":      random,
		"blocks_only": {{Kind: EventBlock, Block: 5, Instrs: 1}, {Kind: EventBlock, Block: 5, Instrs: 1}, {Kind: EventBlock, Block: 6, Instrs: 2}},
		"extremes": {
			{Kind: EventAccess, Addr: math.MaxUint64},
			{Kind: EventAccess, Addr: 0},
			{Kind: EventBlock, Block: math.MaxUint32, Instrs: math.MaxInt32},
			{Kind: EventBlock, Block: 0, Instrs: 0},
		},
	}
}

func TestChunkV2RoundTrip(t *testing.T) {
	for name, events := range chunkCases() {
		t.Run(name, func(t *testing.T) {
			data, err := AppendChunkV2(nil, events)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			var c Columns
			if err := DecodeChunkV2(data, &c, 0); err != nil {
				t.Fatalf("decode: %v", err)
			}
			got := c.AppendEvents(nil)
			if len(got) != len(events) {
				t.Fatalf("decoded %d events, want %d", len(got), len(events))
			}
			for i := range events {
				if got[i] != events[i] {
					t.Fatalf("event %d: got %+v, want %+v", i, got[i], events[i])
				}
			}
		})
	}
}

// TestChunkV2MatchesV1 pins the two wire formats to the same event
// stream: encoding the same events through either codec and decoding
// yields identical rows.
func TestChunkV2MatchesV1(t *testing.T) {
	for name, events := range chunkCases() {
		t.Run(name, func(t *testing.T) {
			var v1 bytes.Buffer
			w := NewWriter(&v1)
			for _, ev := range events {
				ev.Feed(w)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			rec := NewRecorder(0, 0)
			if _, _, err := ReadFile(&v1, rec); err != nil {
				t.Fatal(err)
			}
			v2data, err := AppendChunkV2(nil, events)
			if err != nil {
				t.Fatal(err)
			}
			var c Columns
			if err := DecodeChunkV2(v2data, &c, 0); err != nil {
				t.Fatal(err)
			}
			rec2 := NewRecorder(0, 0)
			for _, ev := range c.AppendEvents(nil) {
				ev.Feed(rec2)
			}
			if len(rec2.T.Accesses) != len(rec.T.Accesses) || len(rec2.T.Blocks) != len(rec.T.Blocks) {
				t.Fatalf("v1/v2 disagree: %d/%d accesses, %d/%d blocks",
					len(rec.T.Accesses), len(rec2.T.Accesses), len(rec.T.Blocks), len(rec2.T.Blocks))
			}
			for i := range rec.T.Accesses {
				if rec.T.Accesses[i] != rec2.T.Accesses[i] {
					t.Fatalf("access %d: v1 %#x, v2 %#x", i, rec.T.Accesses[i], rec2.T.Accesses[i])
				}
			}
			for i := range rec.T.Blocks {
				if rec.T.Blocks[i] != rec2.T.Blocks[i] {
					t.Fatalf("block %d: v1 %+v, v2 %+v", i, rec.T.Blocks[i], rec2.T.Blocks[i])
				}
			}
		})
	}
}

func TestChunkV2RejectsCorruption(t *testing.T) {
	events := chunkCases()["mixed"]
	valid, err := AppendChunkV2(nil, events)
	if err != nil {
		t.Fatal(err)
	}
	var c Columns
	// Every truncation point must fail, never panic or succeed.
	for cut := 0; cut < len(valid); cut++ {
		if err := DecodeChunkV2(valid[:cut], &c, 0); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(valid))
		}
	}
	if err := DecodeChunkV2(append(append([]byte{}, valid...), 0), &c, 0); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Flip the bitmap: popcount no longer matches the block count.
	flipped := append([]byte{}, valid...)
	flipped[len(chunkV2Magic)+2] ^= 0x01
	if err := DecodeChunkV2(flipped, &c, 0); err == nil {
		t.Fatal("bitmap/count mismatch accepted")
	}
	if err := DecodeChunkV2([]byte("LPPTRACE1\n"), &c, 0); err == nil {
		t.Fatal("v1 magic accepted as v2")
	}
}

// TestChunkV2EventLimit exercises the expansion guard: an RLE chunk
// that legally expands past maxEvents must be refused before its
// columns are materialized.
func TestChunkV2EventLimit(t *testing.T) {
	events := make([]Event, 1000)
	for i := range events {
		events[i] = Event{Kind: EventBlock, Block: 1, Instrs: 1}
	}
	data, err := AppendChunkV2(nil, events)
	if err != nil {
		t.Fatal(err)
	}
	var c Columns
	if err := DecodeChunkV2(data, &c, 999); err == nil {
		t.Fatal("chunk over the event limit accepted")
	}
	if err := DecodeChunkV2(data, &c, 1000); err != nil {
		t.Fatalf("chunk at the event limit refused: %v", err)
	}
}

func TestChunkV2EncodeRejectsWideInstrs(t *testing.T) {
	if math.MaxInt <= math.MaxInt32 {
		t.Skip("int is 32-bit; oversized instrs are unrepresentable")
	}
	wide := int(math.MaxInt32)
	wide++ // built at run time: the constant overflows a 32-bit int
	_, err := AppendChunkV2(nil, []Event{{Kind: EventBlock, Block: 1, Instrs: wide}})
	if err == nil {
		t.Fatal("instrs beyond int32 accepted")
	}
}

// TestColumnsAppendEvent pins the row-to-column conversion every
// non-v2 ingest format goes through: filling a reused Columns event by
// event must round-trip through AppendEvents exactly, leave no kind bit
// from an earlier chunk behind, match what DecodeChunkV2 builds for the
// same events wherever the wire format can carry them, and keep
// instruction counts the int32 wire column cannot.
func TestColumnsAppendEvent(t *testing.T) {
	accesses := make([]Event, 13) // not a multiple of 8
	for i := range accesses {
		accesses[i] = Event{Kind: EventAccess, Addr: Addr(0x1000 + 64*i)}
	}
	blocks := make([]Event, 11)
	for i := range blocks {
		blocks[i] = Event{Kind: EventBlock, Block: BlockID(i % 3), Instrs: i}
	}
	cases := map[string][]Event{
		"empty":         {},
		"odd_mixed":     chunkCases()["mixed"],
		"random":        chunkCases()["random"],
		"extremes":      chunkCases()["extremes"],
		"accesses_only": accesses,
		"blocks_only":   blocks,
	}
	// Instruction counts past int32 exist only where int is 64-bit.
	if math.MaxInt > math.MaxInt32 {
		wide := int(math.MaxInt32)
		wide++
		cases["wide_instrs"] = []Event{
			{Kind: EventBlock, Block: 1, Instrs: wide},
			{Kind: EventAccess, Addr: 8},
			{Kind: EventBlock, Block: 2, Instrs: math.MaxInt},
			{Kind: EventBlock, Block: 3, Instrs: -1},
		}
	}
	// Every case reuses one Columns that last held a dense all-blocks
	// chunk, so a kind bit surviving Reset would turn an access into a
	// block.
	var c Columns
	for name, events := range cases {
		t.Run(name, func(t *testing.T) {
			c.Reset()
			for i := 0; i < 64; i++ {
				c.AppendEvent(Event{Kind: EventBlock, Block: 1, Instrs: 1})
			}
			c.Reset()
			for _, ev := range events {
				c.AppendEvent(ev)
			}
			if c.N != len(events) || len(c.Kinds) != (len(events)+7)/8 || len(c.Addrs)+len(c.IDs) != c.N || len(c.Instrs) != len(c.IDs) {
				t.Fatalf("shape: N=%d kinds=%d addrs=%d ids=%d instrs=%d for %d events",
					c.N, len(c.Kinds), len(c.Addrs), len(c.IDs), len(c.Instrs), len(events))
			}
			got := c.AppendEvents(nil)
			if len(got) != len(events) {
				t.Fatalf("round trip: %d events, want %d", len(got), len(events))
			}
			for i := range events {
				if got[i] != events[i] {
					t.Fatalf("event %d = %+v, want %+v", i, got[i], events[i])
				}
			}
			data, err := AppendChunkV2(nil, events)
			if err != nil {
				if name != "wide_instrs" {
					t.Fatalf("encode: %v", err)
				}
				return // not representable on the wire; the rows carry it
			}
			var d Columns
			if err := DecodeChunkV2(data, &d, 0); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if d.N != c.N || !bytes.Equal(d.Kinds, c.Kinds) || !slices.Equal(d.Addrs, c.Addrs) ||
				!slices.Equal(d.IDs, c.IDs) || !slices.Equal(d.Instrs, c.Instrs) {
				t.Fatalf("AppendEvent columns differ from DecodeChunkV2's:\n got  %+v\n want %+v", c, d)
			}
		})
	}
}

// TestColumnsDecodeReusesCapacity checks the decoder is allocation-free
// once a Columns has warmed up, which is what lets the server pool it.
func TestColumnsDecodeReusesCapacity(t *testing.T) {
	data, err := AppendChunkV2(nil, chunkCases()["sweep"])
	if err != nil {
		t.Fatal(err)
	}
	var c Columns
	if err := DecodeChunkV2(data, &c, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeChunkV2(data, &c, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm decode allocates %.2f times per chunk, want 0", allocs)
	}
}
