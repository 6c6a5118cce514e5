package reuse

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"lpp/internal/stats"
	"lpp/internal/trace"
	"lpp/internal/workload"
)

// oracleStreams returns the differential suite's address streams, each
// capped at n accesses: uniform random over 2^17 addresses (enough
// distinct ones to trip a 2^16 eviction cap), a cyclic sweep over a
// working set larger than the small cap, and the interleaved and
// period-drift hostile families.
func oracleStreams(t testing.TB, n int) map[string][]trace.Addr {
	rng := stats.NewRNG(11)
	random := make([]trace.Addr, n)
	for i := range random {
		random[i] = trace.Addr(rng.Intn(1 << 17))
	}
	cyclic := make([]trace.Addr, n)
	for i := range cyclic {
		// Sweeps over 3000 addresses with a hot set every 7th access.
		if i%7 == 0 {
			cyclic[i] = trace.Addr(1<<20 + i%61)
		} else {
			cyclic[i] = trace.Addr(i % 3000)
		}
	}
	streams := map[string][]trace.Addr{"random": random, "cyclic": cyclic}
	for _, name := range []string{"interleaved", "drift"} {
		spec, err := workload.HostileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder(0, 0)
		spec.Make(spec.Params).Run(rec)
		acc := rec.T.Accesses
		if len(acc) > n {
			acc = acc[:n]
		}
		streams[name] = acc
	}
	return streams
}

// coverage counts what checkAgainstReference saw the analyzer do: its
// evictions, the dead last-access entries (at or below the eviction
// floor) that an access reused in place, and the purges of dead
// entries before an insert that would have grown the index; then the
// State() → NewApproxFromState round trips it made, by the point it
// made them at.
type coverage struct {
	evictions, deadReuses, purges    int
	midTail, afterCompact, tailEvict int
}

// maxRoundTrips caps the round trips of each kind per stream, since
// each one costs O(live).
const maxRoundTrips = 4

// maxEventStates caps, per stream, the State() comparisons made after
// a dead-entry reuse or a purge, since each one costs O(live).
const maxEventStates = 64

// evictsIntoTail reports whether EvictOldest(keep) would drop a
// bucket appended since the last rebuild, by the same walk it makes.
func evictsIntoTail(a *ApproxAnalyzer, keep int) bool {
	var dropped int64
	i := 0
	for ; i < len(a.buckets) && a.live-dropped > int64(keep); i++ {
		dropped += a.buckets[i].count
	}
	return i > a.n0
}

// checkAgainstReference replays addrs through the analyzer and the
// frozen reference with the same eviction cap, failing on the first
// access whose distance, bucket count or Distinct() differs. The
// reference forgets evicted addresses at once; the analyzer keeps them
// as dead entries until they are reused or purged, so State() is
// compared after every eviction, after the first maxEventStates dead
// reuses and purges, every stateEvery accesses and at the end. An
// access that finds the index full must leave no dead entry in it. It
// returns what it saw, so callers can tell each path ran.
//
// The analyzer is also replaced by one restored from its State(), as
// a checkpoint recovery would, at the three points where its derived
// tail (the unit buckets since the last rebuild) is most likely to be
// restored wrong: mid-tail, right after a compaction, and right after
// an eviction that reached into the tail. AccessEvict is applied as
// its two halves, Access and the eviction rule, so the test can see
// the tail in between; the reference runs AccessEvict itself.
func checkAgainstReference(t testing.TB, addrs []trace.Addr, eps float64, maxLive, stateEvery int) coverage {
	a, ref := NewApproxAnalyzer(eps), newRefApprox(eps)
	var cov coverage
	roundTrip := func(i int, n *int) {
		if *n >= maxRoundTrips {
			return
		}
		*n++
		restored, err := NewApproxFromState(a.State())
		if err != nil {
			t.Fatalf("access %d: restore: %v", i, err)
		}
		a = restored
	}
	for i, addr := range addrs {
		before, buckets := ref.Distinct(), a.Buckets()
		entries, full := a.last.Len(), a.last.Full()
		prev, seen := a.last.Get(addr)
		dead := seen && prev <= a.floor
		got := a.Access(addr)
		purged := a.last.Len() < entries
		// The index may grow only while it holds no dead entries, so it
		// never outgrows one that deleted them at eviction.
		if full && a.last.Len() != a.Distinct() {
			t.Fatalf("access %d: index was full yet kept %d dead entries", i, a.last.Len()-a.Distinct())
		}
		compacted := a.Buckets() <= buckets
		intoTail := false
		if maxLive > 0 && a.Distinct() > maxLive {
			intoTail = evictsIntoTail(a, maxLive/2)
			a.EvictOldest(maxLive / 2)
		}
		want := ref.AccessEvict(addr, maxLive)
		if got != want {
			t.Fatalf("access %d (addr %d): distance %d, reference %d", i, addr, got, want)
		}
		if a.Buckets() != ref.Buckets() {
			t.Fatalf("access %d: %d buckets, reference %d", i, a.Buckets(), ref.Buckets())
		}
		if a.Distinct() != ref.Distinct() {
			t.Fatalf("access %d: %d distinct, reference %d", i, a.Distinct(), ref.Distinct())
		}
		checkState := (i+1)%stateEvery == 0 || i == len(addrs)-1
		if ref.Distinct() < before {
			cov.evictions++
			checkState = true
		}
		if dead {
			cov.deadReuses++
			checkState = checkState || cov.deadReuses <= maxEventStates
		}
		if purged {
			cov.purges++
			checkState = checkState || cov.purges <= maxEventStates
		}
		if checkState && !reflect.DeepEqual(a.State(), ref.State()) {
			t.Fatalf("access %d: State() differs from reference", i)
		}
		switch {
		case intoTail:
			roundTrip(i, &cov.tailEvict)
		case compacted:
			roundTrip(i, &cov.afterCompact)
		case (i+1)%stateEvery == stateEvery/2 && len(a.buckets) > a.n0:
			roundTrip(i, &cov.midTail)
		}
	}
	return cov
}

// TestApproxMatchesReference pins the analyzer bit-identical to the
// linear-sum reference on random, cyclic and hostile streams, across
// eviction caps and precisions, through dead-entry reuses and purges
// and through restores at each point checkAgainstReference makes them.
func TestApproxMatchesReference(t *testing.T) {
	n := 120_000
	if raceEnabled {
		n = 30_000
	}
	streams := oracleStreams(t, n)
	var mu sync.Mutex
	var total coverage
	// The subtests run in parallel after this body returns; the
	// cleanup runs once all of them are done.
	t.Cleanup(func() {
		if total.midTail == 0 || total.afterCompact == 0 || total.tailEvict == 0 {
			t.Errorf("round trips mid-tail %d, after compaction %d, after tail eviction %d: every kind must occur",
				total.midTail, total.afterCompact, total.tailEvict)
		}
		if total.deadReuses == 0 || total.purges == 0 {
			t.Errorf("dead-entry reuses %d, purges %d: both must occur", total.deadReuses, total.purges)
		}
		t.Logf("evictions %d, dead-entry reuses %d, purges %d; round trips: mid-tail %d, after compaction %d, after tail eviction %d",
			total.evictions, total.deadReuses, total.purges, total.midTail, total.afterCompact, total.tailEvict)
	})
	for _, name := range []string{"random", "cyclic", "interleaved", "drift"} {
		for _, maxLive := range []int{0, 1 << 10, 1 << 16} {
			for _, eps := range []float64{0.05, 0.1} {
				addrs := streams[name]
				t.Run(fmt.Sprintf("%s/maxlive=%d/eps=%g", name, maxLive, eps), func(t *testing.T) {
					t.Parallel()
					cov := checkAgainstReference(t, addrs, eps, maxLive, 1<<13)
					if name == "random" && maxLive > 0 && n >= 100_000 && cov.evictions == 0 {
						t.Fatalf("no eviction at cap %d; the stream no longer covers the eviction path", maxLive)
					}
					mu.Lock()
					total.evictions += cov.evictions
					total.deadReuses += cov.deadReuses
					total.purges += cov.purges
					total.midTail += cov.midTail
					total.afterCompact += cov.afterCompact
					total.tailEvict += cov.tailEvict
					mu.Unlock()
				})
			}
		}
	}
}

// FuzzApproxMatchesReference drives the analyzer and the reference
// with fuzzer-chosen streams, precision and eviction cap. Each input
// byte is either a reuse of one of 192 hot addresses or a fresh
// address; the byte pattern repeats so short inputs still reach the
// compaction and eviction paths. The last two seeds cross the eviction
// cap many times: the first adds purges of dead entries, and the last,
// whose hot set is just past a small cap, reuses dead entries too.
func FuzzApproxMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0xff, 3, 0xfe, 1, 0}, uint8(5), uint16(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0, 1, 0xff}, uint8(10), uint16(64))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(1), uint16(300))
	f.Add([]byte{0xff, 0xff, 0xff, 7}, uint8(10), uint16(1024))
	f.Add([]byte{0xc0, 0xc1, 9, 0xc2, 0xc3, 10, 0xc4}, uint8(5), uint16(1500))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(5), uint16(40))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0xf0, 0xf1}, uint8(10), uint16(24))
	f.Fuzz(func(t *testing.T, pattern []byte, epsPct uint8, maxLive uint16) {
		if len(pattern) == 0 {
			return
		}
		eps := float64(1+int(epsPct)%98) / 100
		const total = 6000
		addrs := make([]trace.Addr, total)
		fresh := trace.Addr(1 << 30)
		for i := range addrs {
			b := pattern[i%len(pattern)]
			if b >= 192 {
				fresh++
				addrs[i] = fresh
			} else {
				addrs[i] = trace.Addr(b) + trace.Addr(i/len(pattern)%3)*256
			}
		}
		checkAgainstReference(t, addrs, eps, int(maxLive%2048), 500)
	})
}

// TestApproxRestoreExactness snapshots the analyzer at the two points
// where its derived state (Fenwick tree, cached compaction target) is
// most likely to go stale — right after an eviction, and one access
// before a compaction — and requires the restored analyzer to answer
// the next accesses exactly as the original.
func TestApproxRestoreExactness(t *testing.T) {
	const maxLive, follow = 1 << 12, 100_000
	rng := stats.NewRNG(5)
	addrs := make([]trace.Addr, 200_000)
	for i := range addrs {
		addrs[i] = trace.Addr(rng.Intn(3 * maxLive))
	}

	// Find the first access after warm-up that evicts, and the first
	// one that compacts without evicting.
	probe := NewApproxAnalyzer(0.05)
	evictAt, compactAt := -1, -1
	for i, addr := range addrs[:len(addrs)-follow] {
		distinct, buckets := probe.Distinct(), probe.Buckets()
		probe.AccessEvict(addr, maxLive)
		switch {
		case i < 20_000:
		case probe.Distinct() < distinct:
			if evictAt < 0 {
				evictAt = i
			}
		case probe.Buckets() < buckets:
			if compactAt < 0 {
				compactAt = i
			}
		}
	}
	if evictAt < 0 || compactAt < 0 {
		t.Fatalf("stream never evicted (%d) or compacted (%d)", evictAt, compactAt)
	}

	for _, tc := range []struct {
		name string
		snap int // accesses made before the snapshot
	}{
		{"after-evict", evictAt + 1},
		{"before-compact", compactAt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig := NewApproxAnalyzer(0.05)
			for _, addr := range addrs[:tc.snap] {
				orig.AccessEvict(addr, maxLive)
			}
			restored, err := NewApproxFromState(orig.State())
			if err != nil {
				t.Fatal(err)
			}
			for i, addr := range addrs[tc.snap : tc.snap+follow] {
				got, want := restored.AccessEvict(addr, maxLive), orig.AccessEvict(addr, maxLive)
				if got != want || restored.Buckets() != orig.Buckets() {
					t.Fatalf("access %d after restore: distance %d/%d, buckets %d/%d",
						i, got, want, restored.Buckets(), orig.Buckets())
				}
			}
			if !reflect.DeepEqual(restored.State(), orig.State()) {
				t.Fatal("State() diverged after restore")
			}
		})
	}

	// The cache and tree are derived, never serialized: the snapshot
	// schema (and so the checkpoint codec) stays exactly as it was.
	var fields []string
	st := reflect.TypeOf(ApproxState{})
	for i := 0; i < st.NumField(); i++ {
		fields = append(fields, st.Field(i).Name)
	}
	want := []string{"Eps", "Now", "Live", "Addrs", "Times", "BucketTimes", "BucketCounts"}
	if !reflect.DeepEqual(fields, want) {
		t.Errorf("ApproxState fields = %v, want %v", fields, want)
	}
}
