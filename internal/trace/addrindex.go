package trace

import (
	"math/bits"
	"math/rand/v2"
)

// AddrIndex maps data addresses to non-negative int64 values: the
// last-access times of the reuse analyzers and the datum slot IDs of
// the streaming detector. It sits on the per-access hot path, so its
// operations fit that path: Swap reads the previous value and stores
// the new one in a single probe sequence, and DeleteUpTo evicts every
// entry at or below a cutoff in one in-place pass.
//
// Slots hold {addr, value} pairs in a power-of-two slice with linear
// probing; a negative value marks an empty slot, so callers may store
// only values >= 0. The table doubles when it would pass 3/4 load.
//
// The home slot is the top bits of a full-avalanche 64-bit mix of the
// address plus a random seed drawn once per table, so addresses a
// client chooses cannot be crafted into long collision chains. Plain
// multiply-shift with a random odd multiplier is not enough for linear
// probing: on aligned and strided address sets (multiples of 2^16 or
// 2^32, dense 8-byte strides) about one multiplier in fifteen drove
// the mean probe length past 3, and some past 70, with chains of
// thousands of slots. Slot order differs on every run, so nothing a
// caller outputs may depend on the order Range visits entries in.
//
// An AddrIndex is not safe for concurrent use.
type AddrIndex struct {
	slots []addrSlot
	mask  uint64 // len(slots) - 1
	shift uint   // 64 - log2(len(slots))
	seed  uint64 // per-table hash seed
	n     int    // live entries
	limit int    // grow when n would pass this (3/4 of len(slots))
}

type addrSlot struct {
	addr Addr
	val  int64 // < 0: empty
}

// minAddrSlots is the smallest table; it keeps tiny indexes cheap to
// create while still leaving room for a few entries before growing.
const minAddrSlots = 16

// NewAddrIndex returns an empty index sized to hold hint entries
// without growing.
func NewAddrIndex(hint int) *AddrIndex {
	x := &AddrIndex{seed: rand.Uint64()}
	size := minAddrSlots
	for size/4*3 < hint {
		size *= 2
	}
	x.alloc(size)
	return x
}

// alloc installs an empty table of size slots (a power of two).
func (x *AddrIndex) alloc(size int) {
	x.slots = make([]addrSlot, size)
	for i := range x.slots {
		x.slots[i].val = -1
	}
	x.mask = uint64(size - 1)
	x.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	x.limit = size / 4 * 3
}

// home returns addr's first probe position: the top bits of the
// splitmix64 finalizer applied to the seeded address. The finalizer's
// last xor-shift only changes the low 33 bits, so it is left out.
func (x *AddrIndex) home(addr Addr) uint64 {
	z := uint64(addr) + x.seed
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z >> x.shift
}

// Len returns the number of entries.
func (x *AddrIndex) Len() int { return x.n }

// Get returns addr's value and whether addr is present.
func (x *AddrIndex) Get(addr Addr) (int64, bool) {
	if i, ok := x.find(addr); ok {
		return x.slots[i].val, true
	}
	return 0, false
}

// find returns the slot holding addr, if any.
func (x *AddrIndex) find(addr Addr) (uint64, bool) {
	for i := x.home(addr); ; i = (i + 1) & x.mask {
		s := &x.slots[i]
		if s.val < 0 {
			return 0, false
		}
		if s.addr == addr {
			return i, true
		}
	}
}

// Swap stores v (>= 0) for addr and returns the value it replaced and
// whether there was one. One probe sequence does both the lookup and
// the store.
func (x *AddrIndex) Swap(addr Addr, v int64) (prev int64, seen bool) {
	for {
		for i := x.home(addr); ; i = (i + 1) & x.mask {
			s := &x.slots[i]
			if s.val < 0 {
				if x.n >= x.limit {
					break // grow, then probe again
				}
				s.addr, s.val = addr, v
				x.n++
				return 0, false
			}
			if s.addr == addr {
				prev, s.val = s.val, v
				return prev, true
			}
		}
		x.grow()
	}
}

// grow doubles the table and re-seats every entry.
func (x *AddrIndex) grow() {
	old := x.slots
	x.alloc(2 * len(old))
	for _, s := range old {
		if s.val >= 0 {
			x.place(s)
		}
	}
}

// place puts s in the first empty slot of its probe sequence; s.addr
// must not be present.
func (x *AddrIndex) place(s addrSlot) {
	i := x.home(s.addr)
	for x.slots[i].val >= 0 {
		i = (i + 1) & x.mask
	}
	x.slots[i] = s
}

// Delete removes addr and reports whether it was present. It uses
// backward-shift deletion: later members of the probe cluster move up
// into the hole, so lookups never need tombstones.
func (x *AddrIndex) Delete(addr Addr) bool {
	i, ok := x.find(addr)
	if !ok {
		return false
	}
	x.n--
	for j := i; ; {
		x.slots[i].val = -1
		for {
			j = (j + 1) & x.mask
			if x.slots[j].val < 0 {
				return true
			}
			// The entry at j may fill the hole at i unless its home
			// lies cyclically in (i, j]: moving it before its home
			// would hide it from lookups.
			if (j-x.home(x.slots[j].addr))&x.mask >= (j-i)&x.mask {
				break
			}
		}
		x.slots[i] = x.slots[j]
		i = j
	}
}

// DeleteUpTo removes every entry whose value is at most cutoff and
// returns how many it removed. It is one in-place pass over the table
// and allocates nothing: starting just past an empty slot, so that no
// probe cluster wraps into the pass's start, each entry is either
// dropped or re-seated at the first empty slot of its probe sequence.
// Every slot the pass has visited then satisfies the linear-probing
// invariant, and re-seating only ever moves an entry backward into
// already-visited territory.
func (x *AddrIndex) DeleteUpTo(cutoff int64) int {
	start := uint64(0)
	for x.slots[start].val >= 0 {
		start++ // load is at most 3/4, so an empty slot exists
	}
	removed := 0
	for k := uint64(1); k <= x.mask; k++ {
		i := (start + k) & x.mask
		s := x.slots[i]
		if s.val < 0 {
			continue
		}
		x.slots[i].val = -1
		if s.val <= cutoff {
			removed++
			continue
		}
		x.place(s)
	}
	x.n -= removed
	return removed
}

// Range calls fn once for every entry, in slot order (which varies
// from run to run). fn may overwrite *v with another non-negative
// value; it must not add or delete entries.
func (x *AddrIndex) Range(fn func(addr Addr, v *int64)) {
	for i := range x.slots {
		if s := &x.slots[i]; s.val >= 0 {
			fn(s.addr, &s.val)
		}
	}
}
