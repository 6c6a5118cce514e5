//go:build !amd64

package trace

import "unsafe"

// hasPrefetch reports whether prefetcht0 issues a real prefetch. This
// architecture has no prefetch stub, so Prefetch compiles to nothing.
const hasPrefetch = false

func prefetcht0(unsafe.Pointer) {}
