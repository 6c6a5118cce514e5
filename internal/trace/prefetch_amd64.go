package trace

import "unsafe"

// hasPrefetch reports whether prefetcht0 issues a real prefetch.
const hasPrefetch = true

// prefetcht0 hints the cache line holding p into every cache level
// (PREFETCHT0). A prefetch never faults and changes no memory.
//
//go:noescape
func prefetcht0(p unsafe.Pointer)
