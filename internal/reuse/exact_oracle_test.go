package reuse

import (
	"bytes"
	"testing"

	"lpp/internal/trace"
)

// checkExactAgainstReference replays addrs through the analyzer and the
// frozen four-walk reference, failing on the first access whose distance
// differs. The distinct-element counts are compared every stateEvery
// accesses and at the end. It returns the number of compactions the
// stream triggered in the analyzer.
func checkExactAgainstReference(t testing.TB, addrs []trace.Addr, stateEvery int) int {
	t.Helper()
	a, ref := NewAnalyzer(), newRefExact()
	compactions := 0
	for i, addr := range addrs {
		before := a.now
		got, want := a.Access(addr), ref.Access(addr)
		if got != want {
			t.Fatalf("access %d (addr %#x): distance %d, reference %d", i, addr, got, want)
		}
		if a.now <= before {
			compactions++
		}
		if (i+1)%stateEvery == 0 || i == len(addrs)-1 {
			if a.Distinct() != ref.last.Len() {
				t.Fatalf("access %d: %d distinct elements, reference %d", i, a.Distinct(), ref.last.Len())
			}
		}
	}
	return compactions
}

// TestAnalyzerMatchesReferenceTrainTraces pins the exact analyzer to the
// frozen reference, access for access, on the Train traces the offline
// benchmark detects on.
func TestAnalyzerMatchesReferenceTrainTraces(t *testing.T) {
	for _, name := range []string{"tomcatv", "swim", "fft", "mesh"} {
		t.Run(name, func(t *testing.T) {
			addrs := trainAccesses(t, name)
			if raceEnabled && len(addrs) > 1<<19 {
				addrs = addrs[:1<<19]
			}
			if n := checkExactAgainstReference(t, addrs, 1<<16); n == 0 {
				t.Fatalf("%d accesses triggered no compaction; the trace no longer covers it", len(addrs))
			}
		})
	}
}

// FuzzAnalyzerMatchesReference drives the analyzer and the reference
// with fuzzer-shaped streams long enough to force several compactions
// and tree growths. Each pattern byte, cycled, is one of:
//
//	0..127    a reuse of one of the hot%128+1 addresses of a small hot set;
//	128..159  an immediate reuse of the previous address (prev == t-1);
//	160..191  a reuse of a cold address from far back in the stream;
//	192..255  a cold scan of up to 4096 fresh addresses.
func FuzzAnalyzerMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0xff, 3, 0x80, 1, 0}, uint8(7))
	f.Add([]byte{0xff, 0xff, 0xa0, 0x80, 0xc0, 5}, uint8(1))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(64))
	f.Add([]byte{0xe0, 0x81, 0xb3, 0xf0, 0x10, 0x90, 0xa7}, uint8(200))
	f.Add([]byte{0x80}, uint8(0))
	// A hot set of four: nearly every reuse finds prev in the open block.
	f.Add([]byte{0, 1, 2, 3}, uint8(3))
	// A 512-address scan, then a reuse of its last address: the first
	// reuse lands on t = 512, the first block boundary, with prev in
	// the block just closed.
	f.Add([]byte{199, 0x80}, uint8(0))
	// 16384 fresh addresses, then immediate reuses up to t = 65536: the
	// first compaction finds the live set at exactly a quarter of the
	// 65536-slot bitmap.
	f.Add(append(bytes.Repeat([]byte{0xff}, 4), bytes.Repeat([]byte{0x80}, 65536-16384)...), uint8(0))
	// Nothing but cold scans: every compaction grows the bitmap.
	f.Add([]byte{0xff}, uint8(0))
	f.Fuzz(func(t *testing.T, pattern []byte, hot uint8) {
		if len(pattern) == 0 {
			return
		}
		checkExactAgainstReference(t, patternStream(pattern, hot, 200_000), 1<<14)
	})
}

// patternStream expands a fuzzer's pattern into total accesses, as
// FuzzAnalyzerMatchesReference documents; pattern must be non-empty.
func patternStream(pattern []byte, hot uint8, total int) []trace.Addr {
	hotSet := trace.Addr(hot)%128 + 1
	addrs := make([]trace.Addr, 0, total)
	fresh := trace.Addr(1 << 30)
	prev := trace.Addr(0)
	for i := 0; len(addrs) < total; i++ {
		b := pattern[i%len(pattern)]
		switch {
		case b < 128:
			prev = trace.Addr(b) % hotSet
			addrs = append(addrs, prev)
		case b < 160:
			addrs = append(addrs, prev)
		case b < 192:
			back := trace.Addr(b-159) * 997
			if fresh-back > 1<<30 {
				prev = fresh - back
			}
			addrs = append(addrs, prev)
		default:
			for k := 0; k < int(b-191)*64 && len(addrs) < total; k++ {
				fresh++
				prev = fresh
				addrs = append(addrs, prev)
			}
		}
	}
	return addrs
}
