package cache

import "lpp/internal/trace"

// MultiAssoc simulates every associativity from 1 to MaxAssoc of a
// set-associative LRU cache in a single pass, the way Cheetah [33]
// measures all cache sizes at once. Each set keeps an LRU stack of
// MaxAssoc blocks; the depth at which an access hits determines the
// smallest associativity that would have hit it.
type MultiAssoc struct {
	maxAssoc  int
	blockBits int
	// ways holds each set's LRU stack, most recently used first, in a
	// fixed MaxAssoc-wide array. A way that holds no block holds
	// emptyWay. Ways at index maxAssoc or beyond hold blocks a
	// maxAssoc-way set has evicted; a hit there counts as a miss.
	ways [][MaxAssoc]trace.Addr
	// depthHits[d] counts accesses that hit at stack depth d
	// (0-based). An access at depth d hits for every assoc > d.
	// depthHits[MaxAssoc] counts the misses.
	depthHits [MaxAssoc + 1]uint64
	accesses  uint64
}

// emptyWay marks a way that holds no block. No block number equals it:
// a block number is an address shifted right by blockBits ≥ 1.
const emptyWay = ^trace.Addr(0)

// NewMultiAssoc returns a one-pass multi-associativity simulator. sets
// must be a power of two, maxAssoc in 1..MaxAssoc and blockBits in
// 1..63.
func NewMultiAssoc(sets, maxAssoc, blockBits int) *MultiAssoc {
	if sets&(sets-1) != 0 || sets <= 0 {
		panic("cache: sets must be a positive power of two")
	}
	if maxAssoc < 1 || maxAssoc > MaxAssoc {
		panic("cache: maxAssoc must be in 1..MaxAssoc")
	}
	if blockBits < 1 || blockBits > 63 {
		panic("cache: blockBits must be in 1..63")
	}
	m := &MultiAssoc{
		maxAssoc:  maxAssoc,
		blockBits: blockBits,
		ways:      make([][MaxAssoc]trace.Addr, sets),
	}
	m.Reset()
	return m
}

// NewDefault returns a MultiAssoc with the paper's geometry: 512 sets,
// 64-byte blocks, associativity 1..8 (32KB..256KB).
func NewDefault() *MultiAssoc {
	return NewMultiAssoc(DefaultSets, MaxAssoc, DefaultBlockBits)
}

// Access references addr, updating the per-depth hit counters.
func (m *MultiAssoc) Access(addr trace.Addr) {
	m.AccessBatch([]trace.Addr{addr})
}

// AccessBatch references every address of addrs in order, exactly as
// that many Access calls would. It is the simulator's hot loop: the
// marked Ref run feeds it whole batches of accesses between marker
// firings, so the geometry is read once per batch and no access pays
// an interface dispatch.
//
// The current set's eight ways live in locals while consecutive
// accesses map to that set, and are written back once, when the set
// changes (on the Ref runs of swim, tomcatv, fft and mesh, 83%, 46%,
// 27% and 21% of accesses map to the set of the access before). The
// search compares the ways front to back and stops at the first
// match; each case shifts the ways above its depth down by one, so
// the move-to-front is register moves only. The stack is kept eight
// deep whatever maxAssoc is: by LRU inclusion its top maxAssoc ways
// are a maxAssoc-way set's, so a match at depth maxAssoc or deeper
// counts as a miss and the loop is the same for every geometry. The
// batch counts its matches per depth in a local array and adds them
// to the counters at the end.
func (m *MultiAssoc) AccessBatch(addrs []trace.Addr) {
	if len(addrs) == 0 {
		return
	}
	// blockBits is in 1..63, so masking the shift count changes nothing
	// but lets the shift compile to one instruction.
	shift, mask := uint(m.blockBits)&63, trace.Addr(len(m.ways)-1)
	ways := m.ways
	// hits[d] counts this batch's matches at depth d, however deep.
	var hits [MaxAssoc + 1]uint64
	w := &ways[addrs[0]>>shift&mask]
	w0, w1, w2, w3, w4, w5, w6, w7 := w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]
	for _, addr := range addrs {
		blk := addr >> shift
		// w0 is in the set the locals hold, unless that set is empty:
		// then the test may fail and reload the same set, harmlessly.
		if (blk^w0)&mask != 0 {
			w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7] = w0, w1, w2, w3, w4, w5, w6, w7
			w = &ways[blk&mask]
			w0, w1, w2, w3, w4, w5, w6, w7 = w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]
		}
		switch blk {
		case w0:
			hits[0]++
		case w1:
			hits[1]++
			w1 = w0
		case w2:
			hits[2]++
			w2, w1 = w1, w0
		case w3:
			hits[3]++
			w3, w2, w1 = w2, w1, w0
		case w4:
			hits[4]++
			w4, w3, w2, w1 = w3, w2, w1, w0
		case w5:
			hits[5]++
			w5, w4, w3, w2, w1 = w4, w3, w2, w1, w0
		case w6:
			hits[6]++
			w6, w5, w4, w3, w2, w1 = w5, w4, w3, w2, w1, w0
		case w7:
			hits[7]++
			w7, w6, w5, w4, w3, w2, w1 = w6, w5, w4, w3, w2, w1, w0
		default:
			hits[MaxAssoc]++
			w7, w6, w5, w4, w3, w2, w1 = w6, w5, w4, w3, w2, w1, w0
		}
		w0 = blk
	}
	w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7] = w0, w1, w2, w3, w4, w5, w6, w7
	// A match at depth maxAssoc or deeper is a miss.
	for d, n := range hits {
		if d >= m.maxAssoc {
			d = MaxAssoc
		}
		m.depthHits[d] += n
	}
	m.accesses += uint64(len(addrs))
}

// The unrolled search and shift in AccessBatch assume eight ways.
const _ = uint(MaxAssoc-8) + uint(8-MaxAssoc)

// Block implements trace.Instrumenter (blocks are ignored).
func (m *MultiAssoc) Block(trace.BlockID, int) {}

// Accesses returns the number of accesses simulated so far.
func (m *MultiAssoc) Accesses() uint64 { return m.accesses }

// MissRate returns the miss rate the cache would have had with the
// given associativity (1..maxAssoc).
func (m *MultiAssoc) MissRate(assoc int) float64 {
	if assoc < 1 || assoc > m.maxAssoc {
		panic("cache: assoc out of range")
	}
	if m.accesses == 0 {
		return 0
	}
	var hits uint64
	for d := 0; d < assoc; d++ {
		hits += m.depthHits[d]
	}
	return float64(m.accesses-hits) / float64(m.accesses)
}

// Vector returns the locality vector the paper uses in Table 4: the
// miss rates for cache sizes 32KB..256KB in 32KB increments (that is,
// associativity 1..8 with the default geometry).
func (m *MultiAssoc) Vector() Vector {
	var v Vector
	for a := 1; a <= m.maxAssoc && a <= len(v); a++ {
		v[a-1] = m.MissRate(a)
	}
	return v
}

// Reset clears cache contents and counters.
func (m *MultiAssoc) Reset() {
	for i := range m.ways {
		for j := range m.ways[i] {
			m.ways[i][j] = emptyWay
		}
	}
	m.depthHits = [MaxAssoc + 1]uint64{}
	m.accesses = 0
}

// Snapshot captures the current counters so a caller can compute miss
// rates over a window (counters since the previous snapshot).
type Snapshot struct {
	depthHits [MaxAssoc]uint64
	accesses  uint64
}

// Snapshot returns the current counter state.
func (m *MultiAssoc) Snapshot() Snapshot {
	var s Snapshot
	copy(s.depthHits[:], m.depthHits[:])
	s.accesses = m.accesses
	return s
}

// Since returns the locality vector of the accesses made after s was
// taken, without resetting cache contents (so warm state is preserved
// across windows, as in a real adaptive cache).
func (m *MultiAssoc) Since(s Snapshot) (Vector, uint64) {
	var v Vector
	n := m.accesses - s.accesses
	if n == 0 {
		return v, 0
	}
	var hits uint64
	for a := 1; a <= m.maxAssoc && a <= len(v); a++ {
		hits += m.depthHits[a-1] - s.depthHits[a-1]
		v[a-1] = float64(n-hits) / float64(n)
	}
	return v, n
}

// Vector is a locality vector: miss rates at the 8 cache sizes
// 32KB..256KB (index i = (i+1)*32KB).
type Vector [MaxAssoc]float64

// MissAt returns the miss rate at size (assoc)*32KB, assoc in 1..8.
func (v Vector) MissAt(assoc int) float64 { return v[assoc-1] }
