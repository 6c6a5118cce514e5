package cache

import (
	"testing"

	"lpp/internal/trace"
)

// refMultiAssoc is the slice-stack simulator that the fixed-width
// MultiAssoc replaced, frozen as its oracle: each set keeps an LRU
// stack that grows by append up to maxAssoc blocks, an access searches
// it front to back and stops at the first match, and the
// move-to-front shifts only the ways above the hit.
type refMultiAssoc struct {
	sets      int
	maxAssoc  int
	blockBits int
	stacks    [][]trace.Addr
	depthHits []uint64
	accesses  uint64
}

func newRefMultiAssoc(sets, maxAssoc, blockBits int) *refMultiAssoc {
	return &refMultiAssoc{
		sets:      sets,
		maxAssoc:  maxAssoc,
		blockBits: blockBits,
		stacks:    make([][]trace.Addr, sets),
		depthHits: make([]uint64, maxAssoc),
	}
}

func (m *refMultiAssoc) AccessBatch(addrs []trace.Addr) {
	shift, mask := m.blockBits, trace.Addr(m.sets-1)
	stacks, depthHits, maxAssoc := m.stacks, m.depthHits, m.maxAssoc
next:
	for _, addr := range addrs {
		blk := addr >> shift
		set := blk & mask
		stack := stacks[set]
		for i, b := range stack {
			if b == blk {
				depthHits[i]++
				refShiftDown(stack[:i+1])
				stack[0] = blk
				continue next
			}
		}
		if len(stack) < maxAssoc {
			stack = append(stack, 0)
			stacks[set] = stack
		}
		refShiftDown(stack)
		stack[0] = blk
	}
	m.accesses += uint64(len(addrs))
}

func refShiftDown(s []trace.Addr) {
	for i := len(s) - 1; i > 0; i-- {
		s[i] = s[i-1]
	}
}

// since is the reference's locality vector over the accesses made
// after the counters were hits (per depth) and accesses.
func (m *refMultiAssoc) since(hits0 []uint64, accesses0 uint64) (Vector, uint64) {
	var v Vector
	n := m.accesses - accesses0
	if n == 0 {
		return v, 0
	}
	var hits uint64
	for a := 1; a <= m.maxAssoc && a <= len(v); a++ {
		hits += m.depthHits[a-1] - hits0[a-1]
		v[a-1] = float64(n-hits) / float64(n)
	}
	return v, n
}

// fuzzAddrs turns the fuzzer's bytes into an address stream for a
// simulator of 1<<setsLog sets and 1<<blockBits-byte blocks. Each byte
// picks a kind by its top two bits and a value by the rest: a small
// address; a block that aliases set 0 under a tag of its own, so one
// set overflows every associativity; an address at the top of the
// address space (all-ones and its neighbours), whose block number is
// the largest the shift can produce; or the previous address again.
func fuzzAddrs(data []byte, setsLog, blockBits int) []trace.Addr {
	addrs := make([]trace.Addr, 0, len(data))
	var prev trace.Addr
	for _, b := range data {
		v := trace.Addr(b & 63)
		var a trace.Addr
		switch b >> 6 {
		case 0:
			a = v << (blockBits - 1)
		case 1:
			a = v<<(setsLog+blockBits) | v&1
		case 2:
			a = ^trace.Addr(0) - v<<blockBits
		default:
			a = prev
		}
		addrs = append(addrs, a)
		prev = a
	}
	return addrs
}

// FuzzMultiAssocMatchesReference drives MultiAssoc and the frozen
// slice-stack reference with the same fuzzer-shaped address stream
// under a fuzzer-chosen geometry, split into ragged batches, and
// requires equal per-depth hit counts, access counts, locality vectors
// and the locality vector of one Snapshot/Since window.
func FuzzMultiAssocMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3}, uint8(0), uint8(8), uint8(6), uint8(3), uint16(4))
	f.Add([]byte{64, 65, 66, 67, 68, 69, 70, 71, 72, 64, 200, 128, 129, 192}, uint8(2), uint8(4), uint8(1), uint8(7), uint16(5))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(6), uint8(1), uint8(3), uint8(0), uint16(20))
	f.Add([]byte{128, 128, 129, 130, 131, 132, 133, 134, 135, 136, 128, 255}, uint8(0), uint8(8), uint8(8), uint8(2), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, setsLog, assoc, blockBits, split uint8, window uint16) {
		if len(data) > 1<<12 {
			data = data[:1<<12]
		}
		sl := int(setsLog % 7)
		ma := int(assoc%MaxAssoc) + 1
		bb := int(blockBits%8) + 1
		addrs := fuzzAddrs(data, sl, bb)
		got, want := NewMultiAssoc(1<<sl, ma, bb), newRefMultiAssoc(1<<sl, ma, bb)
		w := int(window) % (len(addrs) + 1)
		var snap Snapshot
		var refHits []uint64
		var refAccesses uint64
		// Batch lengths cycle through 0..period, so ragged splits and
		// empty batches occur.
		step, period := 0, int(split%32)+1
		for lo := 0; lo <= len(addrs); {
			if lo == w {
				snap = got.Snapshot()
				refHits, refAccesses = append([]uint64(nil), want.depthHits...), want.accesses
			}
			if lo == len(addrs) {
				break
			}
			hi := min(lo+step%(period+1), len(addrs))
			if lo < w && hi > w {
				hi = w
			}
			step++
			got.AccessBatch(addrs[lo:hi])
			want.AccessBatch(addrs[lo:hi])
			lo = hi
		}
		if got.Accesses() != want.accesses {
			t.Fatalf("accesses %d, reference %d", got.Accesses(), want.accesses)
		}
		s := got.Snapshot()
		for d := 0; d < MaxAssoc; d++ {
			var wd uint64
			if d < ma {
				wd = want.depthHits[d]
			}
			if s.depthHits[d] != wd {
				t.Fatalf("depth %d: %d hits, reference %d", d, s.depthHits[d], wd)
			}
		}
		wantVec, _ := want.since(make([]uint64, ma), 0)
		if gotVec := got.Vector(); gotVec != wantVec {
			t.Fatalf("vector %v, reference %v", gotVec, wantVec)
		}
		gotWin, gotN := got.Since(snap)
		wantWin, wantN := want.since(refHits, refAccesses)
		if gotWin != wantWin || gotN != wantN {
			t.Fatalf("window from %d: %v over %d, reference %v over %d", w, gotWin, gotN, wantWin, wantN)
		}
	})
}
