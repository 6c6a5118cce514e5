// Package cache simulates the memory hierarchy used in the paper's
// evaluation: a set-associative LRU data cache of 64-byte blocks and
// 512 sets whose associativity varies from 1 to 8, so the cache size
// ranges from 32KB to 256KB in 32KB units (Section 3.2).
//
// The MultiAssoc simulator reproduces the key property of the Cheetah
// simulator [33]: one pass over the trace yields the miss rate of every
// associativity simultaneously. Within a set, LRU obeys stack
// inclusion, so recording the LRU stack depth of each hit gives the hit
// count for all associativities at once.
package cache

import "lpp/internal/trace"

// Default geometry from Section 3.2 of the paper.
const (
	DefaultBlockBits = 6   // 64-byte blocks
	DefaultSets      = 512 // 512 sets
	MaxAssoc         = 8   // direct-mapped .. 8-way => 32KB..256KB
)

// Sizes returns the cache sizes (bytes) reachable by varying the
// associativity from 1 to maxAssoc with the given geometry.
func Sizes(sets, blockBits, maxAssoc int) []int {
	out := make([]int, maxAssoc)
	for a := 1; a <= maxAssoc; a++ {
		out[a-1] = sets * (1 << blockBits) * a
	}
	return out
}

// SetAssoc is a single set-associative LRU cache.
type SetAssoc struct {
	sets      int
	assoc     int
	blockBits int
	lines     [][]trace.Addr // per set, most-recently-used first
	hits      uint64
	misses    uint64
}

// NewSetAssoc returns a cache with the given geometry. sets must be a
// power of two and blockBits in 0..63 (0 means 1-byte blocks).
func NewSetAssoc(sets, assoc, blockBits int) *SetAssoc {
	if sets&(sets-1) != 0 || sets <= 0 {
		panic("cache: sets must be a positive power of two")
	}
	if assoc <= 0 {
		panic("cache: assoc must be positive")
	}
	if blockBits < 0 || blockBits > 63 {
		panic("cache: blockBits must be in 0..63")
	}
	c := &SetAssoc{sets: sets, assoc: assoc, blockBits: blockBits}
	c.lines = make([][]trace.Addr, sets)
	return c
}

// Access references addr and reports whether it hit.
func (c *SetAssoc) Access(addr trace.Addr) bool {
	blk := addr >> c.blockBits
	set := int(blk) & (c.sets - 1)
	lines := c.lines[set]
	for i, b := range lines {
		if b == blk {
			copy(lines[1:i+1], lines[:i])
			lines[0] = blk
			c.hits++
			return true
		}
	}
	c.misses++
	if len(lines) < c.assoc {
		lines = append(lines, 0)
	}
	copy(lines[1:], lines)
	lines[0] = blk
	c.lines[set] = lines
	return false
}

// Hits returns the hit count so far.
func (c *SetAssoc) Hits() uint64 { return c.hits }

// Misses returns the miss count so far.
func (c *SetAssoc) Misses() uint64 { return c.misses }

// MissRate returns misses / (hits + misses), or 0 with no accesses.
func (c *SetAssoc) MissRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.misses) / float64(total)
}

// Reset clears the cache contents and counters.
func (c *SetAssoc) Reset() {
	for i := range c.lines {
		c.lines[i] = c.lines[i][:0]
	}
	c.hits, c.misses = 0, 0
}

// Block accepts (and ignores) basic-block events so a SetAssoc can sit
// behind event forwarders.
func (c *SetAssoc) Block(trace.BlockID, int) {}

// Sink adapts a SetAssoc to trace.Instrumenter (whose Access returns
// nothing, unlike SetAssoc.Access which reports the hit).
type Sink struct{ C *SetAssoc }

// Block implements trace.Instrumenter.
func (s Sink) Block(trace.BlockID, int) {}

// Access implements trace.Instrumenter.
func (s Sink) Access(addr trace.Addr) { s.C.Access(addr) }
