package trace

import (
	"math/rand/v2"
	"testing"
)

// checkIndex verifies x against the reference map: same entry count,
// every reference entry found with its value, Range visiting exactly
// the reference entries, and the linear-probing invariant (no empty
// slot between an entry's home and its slot).
func checkIndex(t *testing.T, x *AddrIndex, ref map[Addr]int64) {
	t.Helper()
	if x.Len() != len(ref) {
		t.Fatalf("Len %d, reference has %d", x.Len(), len(ref))
	}
	for addr, want := range ref {
		if got, ok := x.Get(addr); !ok || got != want {
			t.Fatalf("Get(%#x) = %d, %v; want %d, true", uint64(addr), got, ok, want)
		}
	}
	visited := 0
	x.Range(func(addr Addr, v *int64) {
		visited++
		if want, ok := ref[addr]; !ok || *v != want {
			t.Fatalf("Range visited %#x = %d; reference has %d, %v", uint64(addr), *v, want, ok)
		}
	})
	if visited != len(ref) {
		t.Fatalf("Range visited %d entries, want %d", visited, len(ref))
	}
	for i, s := range x.slots {
		if s.val < 0 {
			continue
		}
		for j := x.home(s.addr); j != uint64(i); j = (j + 1) & x.mask {
			if x.slots[j].val < 0 {
				t.Fatalf("%#x at slot %d is cut off from its home %d by empty slot %d",
					uint64(s.addr), i, x.home(s.addr), j)
			}
		}
	}
}

// structuredAddr maps a byte onto one of four address families the
// detector sees: small dense integers, multiples of 2^32, 8-byte
// strides in a high region, and multiples of 2^16.
func structuredAddr(b byte) Addr {
	k := Addr(b & 63)
	switch b >> 6 {
	case 0:
		return k
	case 1:
		return k << 32
	case 2:
		return 0x7f0000000000 + 8*k
	default:
		return k << 16
	}
}

// runOps applies ops, three bytes each (operation, address, value), to
// a fresh index and a map, checking them against each other after
// every operation. A sweep's cutoff spans below every value (keep all)
// to above every value (empty the table).
func runOps(t *testing.T, ops []byte) {
	x := NewAddrIndex(0)
	ref := make(map[Addr]int64)
	for len(ops) >= 3 {
		op, addr, b := ops[0]%4, structuredAddr(ops[1]), ops[2]
		ops = ops[3:]
		v := int64(b & 0x7f)
		switch op {
		case 0:
			prev, seen := x.Swap(addr, v)
			want, ok := ref[addr]
			if seen != ok || prev != want {
				t.Fatalf("Swap(%#x, %d) = %d, %v; want %d, %v", uint64(addr), v, prev, seen, want, ok)
			}
			ref[addr] = v
		case 1:
			got, ok := x.Get(addr)
			if want, wantOK := ref[addr]; ok != wantOK || got != want {
				t.Fatalf("Get(%#x) = %d, %v; want %d, %v", uint64(addr), got, ok, want, wantOK)
			}
		case 2:
			_, want := ref[addr]
			if got := x.Delete(addr); got != want {
				t.Fatalf("Delete(%#x) = %v, want %v", uint64(addr), got, want)
			}
			delete(ref, addr)
		case 3:
			cutoff := int64(b) - 64
			want := 0
			for a, v := range ref {
				if v <= cutoff {
					delete(ref, a)
					want++
				}
			}
			if got := x.DeleteUpTo(cutoff); got != want {
				t.Fatalf("DeleteUpTo(%d) removed %d, want %d", cutoff, got, want)
			}
		}
		checkIndex(t, x, ref)
	}
}

// TestAddrIndexMatchesMap runs random operation sequences, weighted
// toward inserts so the table grows mid-sequence, against the map.
func TestAddrIndexMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		ops := make([]byte, 3*600)
		for i := 0; i < len(ops); i += 3 {
			switch r := rng.IntN(20); {
			case r < 12:
				ops[i] = 0
			case r < 15:
				ops[i] = 1
			case r < 19:
				ops[i] = 2
			default:
				ops[i] = 3
			}
			ops[i+1] = byte(rng.Uint32())
			ops[i+2] = byte(rng.Uint32())
		}
		runOps(t, ops)
	}
}

// FuzzAddrIndexMatchesMap checks arbitrary operation sequences against
// the map reference.
func FuzzAddrIndexMatchesMap(f *testing.F) {
	f.Add([]byte{0, 1, 5, 0, 65, 6, 1, 1, 0, 2, 1, 0, 3, 64, 0})
	f.Add([]byte{0, 0, 1, 0, 64, 2, 0, 128, 3, 0, 192, 4, 3, 255, 255})
	f.Add([]byte{0, 10, 9, 0, 11, 8, 0, 12, 7, 3, 0, 0, 3, 0, 72})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*2000 {
			ops = ops[:3*2000]
		}
		runOps(t, ops)
	})
}

// addrsWithHome returns n distinct addresses whose home slot in x is
// home, found by scanning structured addresses.
func addrsWithHome(x *AddrIndex, home uint64, n int) []Addr {
	var out []Addr
	for k := Addr(1); len(out) < n; k++ {
		if a := k << 12; x.home(a) == home {
			out = append(out, a)
		}
	}
	return out
}

// TestAddrIndexWrappingCluster builds a probe cluster that starts in
// the last slot and wraps past the end of the slice, then deletes from
// it and sweeps it, so backward-shift deletion and the sweep's
// re-seating both move entries across the wrap.
func TestAddrIndexWrappingCluster(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		x := NewAddrIndex(0)
		last := x.mask
		ref := make(map[Addr]int64)
		// Five entries homed at the last slot occupy it and slots 0-3;
		// two homed at slot 0 land after them, at slots 4 and 5.
		tail := addrsWithHome(x, last, 5)
		head := addrsWithHome(x, 0, 2)
		for i, a := range append(append([]Addr{}, tail...), head...) {
			x.Swap(a, int64(i))
			ref[a] = int64(i)
		}
		checkIndex(t, x, ref)
		if x.slots[0].addr != tail[1] || x.slots[5].addr != head[1] {
			t.Fatalf("cluster did not wrap: slot 0 holds %#x, slot 5 holds %#x",
				uint64(x.slots[0].addr), uint64(x.slots[5].addr))
		}
		// Deleting the entry in the last slot shifts the whole cluster
		// back across the wrap.
		x.Delete(tail[0])
		delete(ref, tail[0])
		checkIndex(t, x, ref)
		// The sweep drops the other tail entries (values 1-4) and must
		// re-seat the head entries in their home slot and the next.
		if got := x.DeleteUpTo(4); got != 4 {
			t.Fatalf("DeleteUpTo(4) removed %d, want 4", got)
		}
		for _, a := range tail {
			delete(ref, a)
		}
		checkIndex(t, x, ref)
		if x.slots[0].addr != head[0] || x.slots[1].addr != head[1] {
			t.Fatalf("head entries not re-seated at slots 0 and 1")
		}
	}
}

// TestAddrIndexSweepExtremes: a sweep below every value keeps the table
// intact, one above every value empties it, and the emptied table is
// fully reusable.
func TestAddrIndexSweepExtremes(t *testing.T) {
	x := NewAddrIndex(0)
	ref := make(map[Addr]int64)
	for i := 0; i < 1000; i++ {
		a := Addr(i) << 32
		x.Swap(a, int64(i))
		ref[a] = int64(i)
	}
	if got := x.DeleteUpTo(-1); got != 0 {
		t.Fatalf("DeleteUpTo(-1) removed %d, want 0", got)
	}
	checkIndex(t, x, ref)
	if got := x.DeleteUpTo(999); got != 1000 {
		t.Fatalf("DeleteUpTo(999) removed %d, want 1000", got)
	}
	clear(ref)
	checkIndex(t, x, ref)
	for i := 0; i < 1000; i++ {
		a := Addr(i) * 8
		if _, seen := x.Swap(a, 7); seen {
			t.Fatalf("Swap(%#x) after emptying sweep reports a previous value", uint64(a))
		}
		ref[a] = 7
	}
	checkIndex(t, x, ref)
}
