package trace_test

import (
	"fmt"
	"testing"

	"lpp/internal/trace"
	"lpp/internal/workload"
)

// Probe-length bounds for structured address sets. The sets below
// leave the index at 0.40-0.59 load, where a uniformly random hash
// averages at most 1.75 probes per successful lookup; over 9000 runs
// (a fresh seed each) the longest sequence seen was 84 probes, and
// the tail beyond that falls off exponentially. Plain multiply-shift
// fails both bounds on about one run in fifteen.
const (
	maxMeanProbe = 2.5
	maxProbe     = 256
)

type addrSet struct {
	name  string
	addrs []trace.Addr
}

// structuredSets returns the address sets an attacker or an unlucky
// workload is most likely to hand the index: aligned multiples of
// large powers of two, the same sets shifted by perfbench's per-seed
// address offset ((seed mod 4096 + 1) << 32), and dense 8-byte strides.
func structuredSets() []addrSet {
	const n = 1 << 16
	var sets []addrSet
	for _, seed := range []uint64{0, 1, 9001, 4095} {
		off := trace.Addr(0)
		if seed > 0 {
			off = trace.Addr(seed%4096+1) << 32
		}
		for _, f := range []struct {
			name string
			addr func(i int) trace.Addr
		}{
			{"multiples of 2^16", func(i int) trace.Addr { return trace.Addr(i) << 16 }},
			{"multiples of 2^32", func(i int) trace.Addr { return trace.Addr(i) << 32 }},
			{"8-byte strides", func(i int) trace.Addr { return 0x1000 + 8*trace.Addr(i) }},
		} {
			s := addrSet{name: fmt.Sprintf("%s, offset %#x", f.name, uint64(off)), addrs: make([]trace.Addr, n)}
			for i := range s.addrs {
				s.addrs[i] = off + f.addr(i)
			}
			sets = append(sets, s)
		}
	}
	return sets
}

// hostileSets returns the distinct data addresses of each hostile-tier
// trace, in first-touch order.
func hostileSets(t *testing.T) []addrSet {
	var sets []addrSet
	for _, spec := range workload.Hostile() {
		rec := trace.NewRecorder(1<<20, 1<<16)
		spec.Make(spec.Params).Run(rec)
		seen := make(map[trace.Addr]bool)
		var addrs []trace.Addr
		for _, a := range rec.T.Accesses {
			if !seen[a] {
				seen[a] = true
				addrs = append(addrs, a)
			}
		}
		sets = append(sets, addrSet{name: "hostile " + spec.Name, addrs: addrs})
	}
	return sets
}

// TestAddrIndexProbeLengthsStructuredKeys inserts each structured set
// into a fresh index and bounds the mean and longest probe sequence of
// the stored addresses. Every run draws a new hash multiplier, so
// repeated runs (-count) sample many.
func TestAddrIndexProbeLengthsStructuredKeys(t *testing.T) {
	for _, s := range append(structuredSets(), hostileSets(t)...) {
		x := trace.NewAddrIndex(0)
		for i, a := range s.addrs {
			x.Swap(a, int64(i))
		}
		mean, longest := x.ProbeStats()
		t.Logf("%s: %d addrs, mean probe %.2f, longest %d", s.name, len(s.addrs), mean, longest)
		if mean > maxMeanProbe || longest > maxProbe {
			t.Errorf("%s: mean probe %.2f (bound %.1f), longest %d (bound %d)",
				s.name, mean, maxMeanProbe, longest, maxProbe)
		}
	}
}
