package phase

import (
	"bytes"
	"errors"
	"testing"
)

// remapUnorderedKeys is a remap state whose phase set lists key 2
// before key 1: the encoder never writes it, so Restore must refuse it
// rather than accept it and re-snapshot the keys sorted.
var remapUnorderedKeys = []byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x04, 0x04, 0x02}

// FuzzConsumerRestore asserts every stock consumer's state codec takes
// exactly the bytes its encoder writes. The first argument picks the
// consumer. An accepted input must re-snapshot to exactly the input; a
// rejected one must leave the consumer's state untouched. These bodies
// carry no CRC (the chain image seals them), so the fuzzer reaches
// every field.
func FuzzConsumerRestore(f *testing.F) {
	names := Names()
	for i, name := range names {
		c, err := Stock(name)
		if err != nil {
			f.Fatal(err)
		}
		for _, ev := range busStream() {
			c.Consume(ev)
		}
		valid := c.Snapshot()
		f.Add(uint8(i), valid)
		for cut := 0; cut < len(valid); cut += 1 + cut/4 {
			f.Add(uint8(i), valid[:cut])
		}
		fresh, _ := Stock(name)
		f.Add(uint8(i), fresh.Snapshot())
	}
	for i, name := range names {
		if name == "remap" {
			f.Add(uint8(i), remapUnorderedKeys)
		}
	}

	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		c, err := Stock(names[int(which)%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range busStream()[:7] {
			c.Consume(ev)
		}
		before := c.Snapshot()
		if err := c.Restore(data); err != nil {
			if !bytes.Equal(c.Snapshot(), before) {
				t.Fatalf("%s: rejected state partially applied: %v", c.Name(), err)
			}
			return
		}
		if got := c.Snapshot(); !bytes.Equal(got, data) {
			t.Fatalf("%s: accepted state re-snapshots as\n%x\nnot\n%x", c.Name(), got, data)
		}
	})
}

// TestRestoreRejectsUnwrittenBytes pins the rejections the shared
// decoder makes for bytes no encoder writes, each with the package
// sentinel: unordered or duplicate map keys and padded varints. The
// same states with ordered keys are accepted.
func TestRestoreRejectsUnwrittenBytes(t *testing.T) {
	cases := []struct {
		consumer, why string
		data          []byte
		ok            bool
	}{
		{"remap", "keys out of order", remapUnorderedKeys, false},
		{"remap", "duplicate key", []byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x04, 0x02, 0x02}, false},
		{"remap", "padded varint", []byte{0x02, 0x80, 0x00, 0x00, 0x00, 0x00, 0x00}, false},
		{"remap", "ordered keys", []byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x04, 0x02, 0x04}, true},
		{"cacheresize", "keys out of order", resizeBytes(4, 2), false},
		{"cacheresize", "ordered keys", resizeBytes(2, 4), true},
		{"dvfs", "keys out of order", dvfsBytes(4, 2), false},
		{"dvfs", "ordered keys", dvfsBytes(2, 4), true},
	}
	for _, c := range cases {
		cons, err := Stock(c.consumer)
		if err != nil {
			t.Fatal(err)
		}
		err = cons.Restore(c.data)
		switch {
		case c.ok && err != nil:
			t.Errorf("%s, %s: Restore refused: %v", c.consumer, c.why, err)
		case !c.ok && !errors.Is(err, ErrSnapshotCorrupt):
			t.Errorf("%s, %s: Restore = %v, want ErrSnapshotCorrupt", c.consumer, c.why, err)
		}
	}
}

// resizeBytes is a cacheresize state with two groups keyed a and b
// (zigzag bytes), each seen once with nothing learned.
func resizeBytes(a, b byte) []byte {
	s := append([]byte{0x02, 0x00, 0x00}, make([]byte, 4*8)...)
	return append(s, 0x04, a, 0x02, 0x00, b, 0x02, 0x00)
}

// dvfsBytes is a dvfs state with two groups keyed a and b (zigzag
// bytes), each seen once at frequency 0.
func dvfsBytes(a, b byte) []byte {
	s := append([]byte{0x02, 0x00}, make([]byte, 5*8)...)
	s = append(append(s, 0x04, a, 0x02), make([]byte, 8)...)
	return append(append(s, b, 0x02), make([]byte, 8)...)
}
