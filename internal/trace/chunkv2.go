package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Chunk format v2: a columnar (struct-of-arrays) encoding of one bounded
// chunk of trace events. Where the v1 stream interleaves tagged events —
// forcing the decoder to branch per event and walk byte-at-a-time
// through a buffered reader — v2 groups the chunk into columns so the
// decoder is a pointer walk over one contiguous buffer:
//
//	"LPPC2\n"                magic (6 bytes)
//	uvarint n                total events in the chunk
//	uvarint nb               block events (nb <= n)
//	kinds    ceil(n/8) bytes bitmap, LSB-first; bit i set = event i is
//	                         a block event. Unused tail bits must be 0
//	                         and the popcount must equal nb.
//	addrs    n-nb varints    access addresses as zigzag deltas from the
//	                         previous access (first delta from 0), the
//	                         same delta rule as the v1 stream
//	ids      RLE runs        block IDs as (uvarint count, varint delta)
//	                         runs: the delta is applied cumulatively
//	                         count times, so a sweep of consecutive IDs
//	                         is one run. Runs must sum to exactly nb.
//	instrs   RLE runs        block instruction counts as (uvarint count,
//	                         uvarint value) runs, value <= MaxInt32.
//	                         Runs must sum to exactly nb.
//
// No padding, no trailing bytes. The format is per-chunk (not a file
// format): each chunk is self-contained and carries no state from the
// previous one.
const chunkV2Magic = "LPPC2\n"

// ChunkV2ContentType is the HTTP Content-Type identifying a v2 chunk.
// The server also recognizes the magic, so old proxies that rewrite the
// header cannot break negotiation.
const ChunkV2ContentType = "application/x-lpp-chunk2"

// IsChunkV2 reports whether head starts with the v2 chunk magic.
func IsChunkV2(head []byte) bool {
	return len(head) >= len(chunkV2Magic) && string(head[:len(chunkV2Magic)]) == chunkV2Magic
}

// Columns is the struct-of-arrays form of a chunk of trace events.
// Access addresses and block fields live in separate dense slices;
// Kinds is the bitmap giving each event's kind in stream order. A v2
// chunk decodes straight into it (DecodeChunkV2), and row-form events
// from any other source convert losslessly with AppendEvent. The slices
// are reused across Reset, so a long-lived Columns fills chunk after
// chunk without allocating.
type Columns struct {
	N      int       // total events
	Kinds  []byte    // bitmap, LSB-first: bit i set = event i is a block
	Addrs  []Addr    // access addresses, in stream order
	IDs    []BlockID // block IDs, in stream order
	Instrs []int     // block instruction counts, parallel to IDs
}

// Reset empties c without releasing its capacity.
func (c *Columns) Reset() {
	c.N = 0
	c.Kinds = c.Kinds[:0]
	c.Addrs = c.Addrs[:0]
	c.IDs = c.IDs[:0]
	c.Instrs = c.Instrs[:0]
}

// IsBlock reports whether event i is a block event.
func (c *Columns) IsBlock(i int) bool {
	return c.Kinds[i>>3]>>(i&7)&1 == 1
}

// AppendEvent appends one row-form event. Every field an event of its
// kind carries is kept as is (Instrs is not narrowed to the wire
// format's int32), so AppendEvents gives back exactly the events
// appended since the last Reset.
func (c *Columns) AppendEvent(ev Event) {
	if c.N&7 == 0 {
		c.Kinds = append(c.Kinds, 0)
	}
	if ev.Kind == EventBlock {
		c.Kinds[c.N>>3] |= 1 << (c.N & 7)
		c.IDs = append(c.IDs, ev.Block)
		c.Instrs = append(c.Instrs, ev.Instrs)
	} else {
		c.Addrs = append(c.Addrs, ev.Addr)
	}
	c.N++
}

// AppendEvents materializes the columns back into row-form events,
// appending to dst. The round trip through AppendChunkV2 →
// DecodeChunkV2 → AppendEvents reproduces the original events exactly.
func (c *Columns) AppendEvents(dst []Event) []Event {
	ai, bi := 0, 0
	for i := 0; i < c.N; i++ {
		if c.IsBlock(i) {
			dst = append(dst, Event{Kind: EventBlock, Block: c.IDs[bi], Instrs: c.Instrs[bi]})
			bi++
		} else {
			dst = append(dst, Event{Kind: EventAccess, Addr: c.Addrs[ai]})
			ai++
		}
	}
	return dst
}

// AppendChunkV2 encodes events as one v2 chunk, appending to dst. It
// fails only when a block event's instruction count does not fit the
// wire format's int32 column.
func AppendChunkV2(dst []byte, events []Event) ([]byte, error) {
	nb := 0
	for i := range events {
		if events[i].Kind == EventBlock {
			if events[i].Instrs < 0 || int64(events[i].Instrs) > math.MaxInt32 {
				return dst, fmt.Errorf("trace: chunk v2: block instrs %d outside int32", events[i].Instrs)
			}
			nb++
		}
	}
	dst = append(dst, chunkV2Magic...)
	dst = binary.AppendUvarint(dst, uint64(len(events)))
	dst = binary.AppendUvarint(dst, uint64(nb))
	base := len(dst)
	for i := 0; i < (len(events)+7)/8; i++ {
		dst = append(dst, 0)
	}
	for i := range events {
		if events[i].Kind == EventBlock {
			dst[base+i>>3] |= 1 << (i & 7)
		}
	}
	prev := Addr(0)
	for i := range events {
		if events[i].Kind != EventBlock {
			dst = binary.AppendVarint(dst, int64(events[i].Addr)-int64(prev))
			prev = events[i].Addr
		}
	}
	// Block-ID runs: consecutive equal deltas collapse, so both repeated
	// IDs (delta 0) and ID sweeps (delta 1) cost one run.
	prevID, runLen, runDelta := int64(0), 0, int64(0)
	for i := range events {
		if events[i].Kind != EventBlock {
			continue
		}
		d := int64(events[i].Block) - prevID
		prevID = int64(events[i].Block)
		if runLen > 0 && d == runDelta {
			runLen++
			continue
		}
		if runLen > 0 {
			dst = binary.AppendUvarint(dst, uint64(runLen))
			dst = binary.AppendVarint(dst, runDelta)
		}
		runLen, runDelta = 1, d
	}
	if runLen > 0 {
		dst = binary.AppendUvarint(dst, uint64(runLen))
		dst = binary.AppendVarint(dst, runDelta)
	}
	// Instruction-count runs: plain value repetition.
	runLen = 0
	runVal := uint64(0)
	for i := range events {
		if events[i].Kind != EventBlock {
			continue
		}
		v := uint64(events[i].Instrs)
		if runLen > 0 && v == runVal {
			runLen++
			continue
		}
		if runLen > 0 {
			dst = binary.AppendUvarint(dst, uint64(runLen))
			dst = binary.AppendUvarint(dst, runVal)
		}
		runLen, runVal = 1, v
	}
	if runLen > 0 {
		dst = binary.AppendUvarint(dst, uint64(runLen))
		dst = binary.AppendUvarint(dst, runVal)
	}
	return dst, nil
}

// DecodeChunkV2 decodes one complete v2 chunk into c, reusing c's
// slices, so the steady-state decode allocates nothing. Any deviation
// from the format — bad magic, truncation, a bitmap/count mismatch,
// RLE runs over- or under-shooting their column, out-of-range values,
// trailing bytes — is an error; the partially filled c must then be
// discarded (Reset) before reuse.
//
// maxEvents > 0 bounds the decoded event count: the RLE columns can
// legally expand far beyond the wire size, so a decoder facing
// untrusted input must cap the expansion, not just the chunk bytes.
func DecodeChunkV2(data []byte, c *Columns, maxEvents int) error {
	c.Reset()
	if !IsChunkV2(data) {
		return fmt.Errorf("trace: chunk v2: bad magic")
	}
	off := len(chunkV2Magic)
	n64, w := binary.Uvarint(data[off:])
	if w <= 0 {
		return fmt.Errorf("trace: chunk v2: truncated event count")
	}
	off += w
	nb64, w := binary.Uvarint(data[off:])
	if w <= 0 {
		return fmt.Errorf("trace: chunk v2: truncated block count")
	}
	off += w
	if nb64 > n64 {
		return fmt.Errorf("trace: chunk v2: %d block events > %d total", nb64, n64)
	}
	if n64 > math.MaxInt32 || (maxEvents > 0 && n64 > uint64(maxEvents)) {
		return fmt.Errorf("trace: chunk v2: %d events exceeds limit", n64)
	}
	n, nb := int(n64), int(nb64)
	bm := (n + 7) / 8
	if len(data)-off < bm {
		return fmt.Errorf("trace: chunk v2: truncated kinds bitmap")
	}
	kinds := data[off : off+bm]
	off += bm
	pop := 0
	for _, b := range kinds {
		pop += bits.OnesCount8(b)
	}
	if pop != nb {
		return fmt.Errorf("trace: chunk v2: bitmap popcount %d != block count %d", pop, nb)
	}
	if n%8 != 0 && bm > 0 && kinds[bm-1]>>(n%8) != 0 {
		return fmt.Errorf("trace: chunk v2: nonzero bits past event %d", n)
	}
	prev := int64(0)
	for i := 0; i < n-nb; i++ {
		d, w := binary.Varint(data[off:])
		if w <= 0 {
			return fmt.Errorf("trace: chunk v2: truncated access delta")
		}
		off += w
		prev += d // wraps mod 2^64, matching the v1 delta rule
		c.Addrs = append(c.Addrs, Addr(prev))
	}
	prevID := int64(0)
	for len(c.IDs) < nb {
		cnt, w := binary.Uvarint(data[off:])
		if w <= 0 {
			return fmt.Errorf("trace: chunk v2: truncated block id run")
		}
		off += w
		if cnt == 0 || cnt > uint64(nb-len(c.IDs)) {
			return fmt.Errorf("trace: chunk v2: block id run of %d outside column", cnt)
		}
		d, w := binary.Varint(data[off:])
		if w <= 0 {
			return fmt.Errorf("trace: chunk v2: truncated block id delta")
		}
		off += w
		for k := uint64(0); k < cnt; k++ {
			prevID += d
			if prevID < 0 || prevID > math.MaxUint32 {
				return fmt.Errorf("trace: chunk v2: block id %d outside uint32", prevID)
			}
			c.IDs = append(c.IDs, BlockID(prevID))
		}
	}
	for len(c.Instrs) < nb {
		cnt, w := binary.Uvarint(data[off:])
		if w <= 0 {
			return fmt.Errorf("trace: chunk v2: truncated instrs run")
		}
		off += w
		if cnt == 0 || cnt > uint64(nb-len(c.Instrs)) {
			return fmt.Errorf("trace: chunk v2: instrs run of %d outside column", cnt)
		}
		v, w := binary.Uvarint(data[off:])
		if w <= 0 {
			return fmt.Errorf("trace: chunk v2: truncated instrs value")
		}
		off += w
		if v > math.MaxInt32 {
			return fmt.Errorf("trace: chunk v2: instrs %d outside int32", v)
		}
		for k := uint64(0); k < cnt; k++ {
			c.Instrs = append(c.Instrs, int(v))
		}
	}
	if off != len(data) {
		return fmt.Errorf("trace: chunk v2: %d trailing bytes", len(data)-off)
	}
	c.N = n
	c.Kinds = append(c.Kinds, kinds...)
	return nil
}
