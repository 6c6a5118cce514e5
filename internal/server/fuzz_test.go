package server

import (
	"bufio"
	"bytes"
	"testing"

	"lpp/internal/stats"
	"lpp/internal/trace"
)

// interleaveEvents time-slices two tenant event streams the way the
// hostile interleaved workload does: alternate tenants, slice length
// quantum +/- jitter, all driven by one seeded RNG.
func interleaveEvents(a, b []trace.Event, quantum int, jitter float64, seed uint64) []trace.Event {
	rng := stats.NewRNG(seed)
	out := make([]trace.Event, 0, len(a)+len(b))
	ai, bi := 0, 0
	tenant := 0
	for ai < len(a) || bi < len(b) {
		n := int(float64(quantum) * (1 + jitter*(2*rng.Float64()-1)))
		if n < 1 {
			n = 1
		}
		if tenant == 0 {
			for ; n > 0 && ai < len(a); n-- {
				out = append(out, a[ai])
				ai++
			}
		} else {
			for ; n > 0 && bi < len(b); n-- {
				out = append(out, b[bi])
				bi++
			}
		}
		tenant = 1 - tenant
	}
	return out
}

// tenantEvents derives one tenant's small synthetic event stream from a
// seed: bursts of strided accesses with block headers, addresses offset
// into the tenant's own range.
func tenantEvents(seed uint64, n int, base trace.Addr) []trace.Event {
	rng := stats.NewRNG(seed)
	out := make([]trace.Event, 0, n)
	for len(out) < n {
		out = append(out, trace.Event{Kind: trace.EventBlock, Block: trace.BlockID(rng.Intn(1 << 16)), Instrs: 1 + rng.Intn(256)})
		burst := 1 + rng.Intn(32)
		addr := base + trace.Addr(rng.Uint64()>>20)
		stride := trace.Addr(8 * (1 + rng.Intn(16)))
		for i := 0; i < burst && len(out) < n; i++ {
			out = append(out, trace.Event{Kind: trace.EventAccess, Addr: addr})
			addr += stride
		}
	}
	return out
}

// FuzzInterleavedReader drives random quantum/jitter interleavings of
// two tenant streams through both ingest decoders — the binary
// trace.Reader and the NDJSON fast path — and requires both to return
// the exact event sequence that was encoded. This is the ingest-side
// guarantee behind the multi-tenant hostile family: however jaggedly
// two tenants' events are sliced together, the codecs must neither
// lose, reorder, nor invent events.
func FuzzInterleavedReader(f *testing.F) {
	f.Add(uint64(1), uint64(2), 16, 128, 40, 40)
	f.Add(uint64(7), uint64(7), 1, 255, 1, 300)
	f.Add(uint64(42), uint64(99), 1000, 0, 200, 3)
	f.Fuzz(func(t *testing.T, seedA, seedB uint64, quantum, jitterByte, lenA, lenB int) {
		if quantum < 1 {
			quantum = 1
		}
		if quantum > 1<<16 {
			quantum = 1 << 16
		}
		jitter := float64(jitterByte&0xFF) / 255
		if lenA < 0 {
			lenA = -lenA
		}
		if lenB < 0 {
			lenB = -lenB
		}
		lenA, lenB = lenA%1024, lenB%1024
		a := tenantEvents(seedA, lenA, 0)
		b := tenantEvents(seedB, lenB, trace.Addr(1)<<44)
		events := interleaveEvents(a, b, quantum, jitter, seedA^seedB^0xF022)

		// Binary round trip through the pooled reader path.
		var bin bytes.Buffer
		w := trace.NewWriter(&bin)
		for _, ev := range events {
			ev.Feed(w)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("encode binary: %v", err)
		}
		st := &decodeState{br: bufio.NewReaderSize(nil, 1<<16), buf: make([]byte, 64<<10)}
		st.br.Reset(bytes.NewReader(bin.Bytes()))
		binCols, err := st.decodeBinary()
		if err != nil {
			t.Fatalf("decode binary: %v", err)
		}
		gotBin := binCols.AppendEvents(nil)
		if len(gotBin) != len(events) {
			t.Fatalf("binary: %d events, want %d", len(gotBin), len(events))
		}
		for i := range events {
			if gotBin[i] != events[i] {
				t.Fatalf("binary event %d = %+v, want %+v", i, gotBin[i], events[i])
			}
		}

		// NDJSON round trip; the canonical encoding must take the
		// allocation-free fast path and still agree exactly.
		st2 := &decodeState{br: bufio.NewReaderSize(nil, 1<<16), buf: make([]byte, 64<<10)}
		st2.br.Reset(bytes.NewReader(encodeNDJSON(events)))
		ndCols, err := st2.decodeNDJSON()
		if err != nil {
			t.Fatalf("decode ndjson: %v", err)
		}
		gotND := ndCols.AppendEvents(nil)
		if len(gotND) != len(gotBin) {
			t.Fatalf("ndjson: %d events, binary %d", len(gotND), len(gotBin))
		}
		for i := range gotBin {
			if gotND[i] != gotBin[i] {
				t.Fatalf("paths disagree at event %d: ndjson %+v, binary %+v", i, gotND[i], gotBin[i])
			}
		}
	})
}
