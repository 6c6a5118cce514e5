package codec

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

var errTest = errors.New("test: corrupt")

// TestRoundTrip writes one value of every kind and reads it back.
func TestRoundTrip(t *testing.T) {
	var e Enc
	e.I64(math.MinInt64)
	e.U64(math.MaxUint64)
	e.Num(-7)
	e.F64(math.Inf(-1))
	e.Flag(true)
	e.NumFlag(true)
	e.Str("phase")
	e.Bytes([]byte{1, 2})
	e.Blob([]byte{3})
	e.Num(2)
	for _, k := range SortedKeys(map[int]bool{9: true, -3: true}) {
		e.Num(k)
	}

	d := NewDec(e.Buf, errTest)
	if v := d.I64(); v != math.MinInt64 {
		t.Errorf("I64 = %d", v)
	}
	if v := d.U64(); v != math.MaxUint64 {
		t.Errorf("U64 = %d", v)
	}
	if v := d.Num(); v != -7 {
		t.Errorf("Num = %d", v)
	}
	if v := d.F64(); !math.IsInf(v, -1) {
		t.Errorf("F64 = %v", v)
	}
	if !d.Flag() || !d.NumFlag() {
		t.Error("flags decoded false")
	}
	if s := d.Str(); s != "phase" {
		t.Errorf("Str = %q", s)
	}
	if b := d.Bytes(); !bytes.Equal(b, []byte{1, 2}) {
		t.Errorf("Bytes = %v", b)
	}
	if b := d.Blob(); !bytes.Equal(b, []byte{3}) {
		t.Errorf("Blob = %v", b)
	}
	n := d.Length(1)
	var keys []int
	for i, k := 0, 0; i < n; i++ {
		k = d.Key(i, k)
		keys = append(keys, k)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != -3 || keys[1] != 9 {
		t.Errorf("keys = %v", keys)
	}
}

// TestDecRejects covers every input the encoder never writes: each is
// refused with the caller's sentinel, and the error sticks.
func TestDecRejects(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		read func(*Dec)
	}{
		{"truncated varint", []byte{0x80}, func(d *Dec) { d.I64() }},
		{"padded varint", []byte{0x82, 0x00}, func(d *Dec) { d.I64() }},
		{"padded uvarint", []byte{0x80, 0x80, 0x00}, func(d *Dec) { d.U64() }},
		{"short float", make([]byte, 7), func(d *Dec) { d.F64() }},
		{"flag byte 2", []byte{2}, func(d *Dec) { d.Flag() }},
		{"num flag 2", []byte{0x04}, func(d *Dec) { d.NumFlag() }},
		{"num flag -1", []byte{0x01}, func(d *Dec) { d.NumFlag() }},
		{"negative length", []byte{0x01}, func(d *Dec) { d.Length(1) }},
		{"length past input", []byte{0x06, 0, 0}, func(d *Dec) { d.Length(1) }},
		{"wide elements past input", []byte{0x04, 0, 0, 0}, func(d *Dec) { d.Length(2) }},
		{"blob past input", []byte{0x03, 0, 0}, func(d *Dec) { d.Blob() }},
		{"keys unordered", []byte{0x04, 0x02}, func(d *Dec) { d.Key(1, d.Key(0, 0)) }},
		{"keys equal", []byte{0x04, 0x04}, func(d *Dec) { d.Key(1, d.Key(0, 0)) }},
		{"trailing bytes", []byte{0x02, 0x00}, func(d *Dec) { d.Num() }},
	}
	for _, c := range cases {
		d := NewDec(c.data, errTest)
		c.read(d)
		if err := d.Done(); !errors.Is(err, errTest) {
			t.Errorf("%s: err = %v, want the sentinel", c.name, err)
		}
		if d.Num() != 0 || d.Err() == nil {
			t.Errorf("%s: error did not stick", c.name)
		}
	}
}

// TestSeal checks the trailer is CRC32-IEEE little-endian and that any
// flipped bit or short input fails Unseal.
func TestSeal(t *testing.T) {
	sealed := Seal([]byte("LPPTEST"))
	if want := []byte("LPPTEST\xeb\x4b\xf4\xe5"); !bytes.Equal(sealed, want) {
		t.Fatalf("Seal = %x, want %x", sealed, want)
	}
	body, ok := Unseal(sealed)
	if !ok || string(body) != "LPPTEST" {
		t.Fatalf("Unseal = %q, %v", body, ok)
	}
	for i := range sealed {
		bad := append([]byte(nil), sealed...)
		bad[i] ^= 0x10
		if _, ok := Unseal(bad); ok {
			t.Errorf("flip at %d accepted", i)
		}
	}
	for n := 0; n < 4; n++ {
		if _, ok := Unseal(sealed[:n]); ok {
			t.Errorf("%d-byte input accepted", n)
		}
	}
}
