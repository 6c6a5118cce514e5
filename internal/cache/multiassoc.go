package cache

import "lpp/internal/trace"

// MultiAssoc simulates every associativity from 1 to MaxAssoc of a
// set-associative LRU cache in a single pass, the way Cheetah [33]
// measures all cache sizes at once. Each set keeps an LRU stack of up
// to maxAssoc blocks; the depth at which an access hits determines the
// smallest associativity that would have hit it.
type MultiAssoc struct {
	sets      int
	maxAssoc  int
	blockBits int
	stacks    [][]trace.Addr
	// depthHits[d] counts accesses that hit at stack depth d
	// (0-based). An access at depth d hits for every assoc > d.
	depthHits []uint64
	accesses  uint64
}

// NewMultiAssoc returns a one-pass multi-associativity simulator. sets
// must be a power of two.
func NewMultiAssoc(sets, maxAssoc, blockBits int) *MultiAssoc {
	if sets&(sets-1) != 0 || sets <= 0 {
		panic("cache: sets must be a positive power of two")
	}
	return &MultiAssoc{
		sets:      sets,
		maxAssoc:  maxAssoc,
		blockBits: blockBits,
		stacks:    make([][]trace.Addr, sets),
		depthHits: make([]uint64, maxAssoc),
	}
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
func (m *MultiAssoc) AccessBatch(addrs []trace.Addr) {
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
				shiftDown(stack[:i+1])
				stack[0] = blk
				continue next
			}
		}
		if len(stack) < maxAssoc {
			stack = append(stack, 0)
			stacks[set] = stack
		}
		shiftDown(stack)
		stack[0] = blk
	}
	m.accesses += uint64(len(addrs))
}

// shiftDown moves s[:len(s)-1] one slot toward the end, dropping the
// last element: an LRU stack's move-to-front. Stacks hold at most
// MaxAssoc blocks, so a plain loop beats a memmove call.
func shiftDown(s []trace.Addr) {
	for i := len(s) - 1; i > 0; i-- {
		s[i] = s[i-1]
	}
}

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
	for i := range m.stacks {
		m.stacks[i] = m.stacks[i][:0]
	}
	for i := range m.depthHits {
		m.depthHits[i] = 0
	}
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
	copy(s.depthHits[:], m.depthHits)
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
