// Package codec is the one encoder/decoder behind every hand-written
// binary state format in lpp:
//
//   - LPPSNAP, the online detector's snapshot (internal/online);
//   - LPPCHN, the consumer-chain image, and the state bodies of the
//     four stock consumers it embeds (internal/phase);
//   - LPPKNW1, the knowledge store, and the knowledge consumer's state
//     (internal/knowledge);
//   - LPPCKPT1, the durable checkpoint and migration image
//     (internal/durable);
//   - LPPBUS1, the detector + chain pair inside a checkpoint
//     (internal/server).
//
// The conventions are the same everywhere, so equal state always
// encodes to equal bytes:
//
//   - integers are zigzag varints (I64, Num); fingerprints and
//     addresses are uvarints (U64); both in their shortest form only;
//   - list, string and byte-field lengths are Num values, checked
//     against the remaining input on decode (Length); the two blobs of
//     LPPCKPT1 and LPPBUS1 carry uvarint lengths instead (Blob);
//   - floats are their IEEE-754 bits, 8 bytes little-endian (F64);
//   - booleans are one byte 0 or 1 (Flag), or a Num 0 or 1 where a
//     format wrote them that way (NumFlag); any other value is corrupt;
//   - map entries are written in ascending key order (SortedKeys), and
//     the decoder rejects keys that are not strictly ascending (Key);
//   - sealed formats end in a CRC32-IEEE of everything before it, 4
//     bytes little-endian (Seal, Unseal).
//
// Decoding is sticky: the first failure is kept, every later read
// returns a zero value, and lengths are capped by the bytes actually
// left, so corrupt input cannot panic or force a huge allocation.
// Errors wrap the sentinel the caller passes to NewDec, so each format
// keeps its own errors.Is identity.
package codec

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

// Enc appends encoded values to Buf.
type Enc struct{ Buf []byte }

// I64 appends a zigzag varint.
func (e *Enc) I64(v int64) { e.Buf = binary.AppendVarint(e.Buf, v) }

// U64 appends a uvarint.
func (e *Enc) U64(v uint64) { e.Buf = binary.AppendUvarint(e.Buf, v) }

// Num appends an int as a zigzag varint.
func (e *Enc) Num(v int) { e.I64(int64(v)) }

// F64 appends a float's bits, 8 bytes little-endian.
func (e *Enc) F64(v float64) {
	e.Buf = binary.LittleEndian.AppendUint64(e.Buf, math.Float64bits(v))
}

// Flag appends a boolean as one byte, 0 or 1.
func (e *Enc) Flag(v bool) { e.Buf = append(e.Buf, b2u8(v)) }

// NumFlag appends a boolean as the Num 0 or 1.
func (e *Enc) NumFlag(v bool) { e.Num(int(b2u8(v))) }

// Str appends a Num length and the string's bytes.
func (e *Enc) Str(s string) {
	e.Num(len(s))
	e.Buf = append(e.Buf, s...)
}

// Bytes appends a Num length and the bytes.
func (e *Enc) Bytes(b []byte) {
	e.Num(len(b))
	e.Buf = append(e.Buf, b...)
}

// Blob appends a uvarint length and the bytes.
func (e *Enc) Blob(b []byte) {
	e.U64(uint64(len(b)))
	e.Buf = append(e.Buf, b...)
}

func b2u8(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// SortedKeys returns a map's keys in ascending order, the only order
// an encoder may write map entries in.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Seal appends the CRC32-IEEE of buf, 4 bytes little-endian.
func Seal(buf []byte) []byte {
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// Unseal checks the CRC32 trailer Seal wrote and returns the bytes it
// covers. ok is false if data is shorter than a trailer or the
// checksum does not match.
func Unseal(data []byte) (body []byte, ok bool) {
	if len(data) < 4 {
		return nil, false
	}
	body = data[:len(data)-4]
	return body, crc32.ChecksumIEEE(body) == binary.LittleEndian.Uint32(data[len(body):])
}

// Dec decodes values from a buffer with a sticky error.
type Dec struct {
	buf     []byte
	off     int
	err     error
	corrupt error
}

// NewDec returns a decoder over buf whose errors wrap corrupt.
func NewDec(buf []byte, corrupt error) *Dec {
	return &Dec{buf: buf, corrupt: corrupt}
}

// Fail records a decode error wrapping the sentinel, unless one is
// already recorded.
func (d *Dec) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", d.corrupt, fmt.Sprintf(format, args...))
	}
}

// Err returns the first decode error, or nil.
func (d *Dec) Err() error { return d.err }

// Done returns the first decode error, or one for trailing bytes.
func (d *Dec) Done() error {
	if d.err == nil && d.off != len(d.buf) {
		d.Fail("%d trailing bytes", len(d.buf)-d.off)
	}
	return d.err
}

// I64 decodes a zigzag varint.
func (d *Dec) I64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 || !d.minimal(n) {
		d.Fail("bad varint at %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// U64 decodes a uvarint.
func (d *Dec) U64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 || !d.minimal(n) {
		d.Fail("bad uvarint at %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// minimal reports whether the n-byte varint at the cursor is the
// shortest encoding of its value, the only one an encoder writes: a
// final byte of zero past the first only pads the value.
func (d *Dec) minimal(n int) bool { return n == 1 || d.buf[d.off+n-1] != 0 }

// Num decodes a zigzag varint that must fit an int.
func (d *Dec) Num() int {
	v := d.I64()
	if int64(int(v)) != v {
		d.Fail("int overflow")
		return 0
	}
	return int(v)
}

// F64 decodes 8 little-endian bytes of float bits.
func (d *Dec) F64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf)-d.off < 8 {
		d.Fail("short float at %d", d.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// Flag decodes a one-byte boolean; bytes other than 0 and 1 are
// corrupt.
func (d *Dec) Flag() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.Fail("short flag")
		return false
	}
	b := d.buf[d.off]
	d.off++
	if b > 1 {
		d.Fail("bad flag %d", b)
	}
	return b == 1
}

// NumFlag decodes a Num boolean; values other than 0 and 1 are
// corrupt.
func (d *Dec) NumFlag() bool {
	v := d.Num()
	if v != 0 && v != 1 {
		d.Fail("bad flag %d", v)
	}
	return v == 1
}

// Length decodes a list length whose elements occupy at least
// elemSize bytes each, rejecting lengths the remaining input cannot
// hold.
func (d *Dec) Length(elemSize int) int {
	n := d.Num()
	if n < 0 {
		d.Fail("negative length")
		return 0
	}
	if n > (len(d.buf)-d.off)/max(elemSize, 1) {
		d.Fail("length %d exceeds input", n)
		return 0
	}
	return n
}

// Key decodes the i-th key of a map written by ascending key: a Num
// that must exceed prev, the key before it, unless i is 0.
func (d *Dec) Key(i, prev int) int {
	k := d.Num()
	if d.err == nil && i > 0 && k <= prev {
		d.Fail("key %d not above %d", k, prev)
	}
	return k
}

// Str decodes a Num-length string.
func (d *Dec) Str() string { return string(d.take(d.Length(1))) }

// Bytes decodes a Num-length byte field. The result aliases the input.
func (d *Dec) Bytes() []byte { return d.take(d.Length(1)) }

// Blob decodes a uvarint-length byte field. The result aliases the
// input.
func (d *Dec) Blob() []byte {
	n := d.U64()
	if d.err == nil && n > uint64(len(d.buf)-d.off) {
		d.Fail("blob of %d bytes exceeds input", n)
	}
	return d.take(int(n))
}

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}
