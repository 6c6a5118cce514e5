package online

import (
	"fmt"
	"testing"

	"lpp/internal/trace"
	"lpp/internal/workload"
)

// refEvictStalest is the full-table scan that evictStalest replaced,
// frozen as its oracle: among the tracked datums the stale test
// accepts at clock now, the one with the oldest last sample, the
// lowest slot on a tie. It only picks; the caller compares.
func refEvictStalest(d *Detector, now, minAge int64) (int, bool) {
	best, bestLast := -1, int64(0)
	for id, dt := range d.data {
		if dt == nil || !refStale(dt, now, minAge) {
			continue
		}
		last := int64(0)
		if n := len(dt.times); n > 0 {
			last = dt.times[n-1]
		}
		if best < 0 || last < bestLast {
			best, bestLast = id, last
		}
	}
	return best, best >= 0
}

// refStale is the frozen stale test refEvictStalest applies.
func refStale(dt *datum, now, minAge int64) bool {
	n := len(dt.times)
	if n == 0 {
		return true
	}
	idle := now - dt.times[n-1]
	if idle < minAge {
		return false
	}
	if n >= 2 {
		period := (dt.times[n-1] - dt.times[0]) / int64(n-1)
		if idle <= 2*period {
			return false
		}
	}
	return true
}

// evictionCounts tallies what checkEvictions saw claimSlot do.
type evictionCounts struct {
	claims int // slots taken from a stale datum
	misses int // searches that found no stale datum
}

// checkEvictions feeds events through a detector one at a time and
// requires every stale-datum search claimSlot makes to agree with the
// frozen scan run on the state the access found: the same slot when
// one is claimed, none when the search comes up empty. Halfway through
// it replaces the detector with one restored from its snapshot, so the
// rebuilt recency list is checked too.
//
// A search is observed from outside: a claim replaces a tracked datum
// with a new one in the same slot, which nothing else does, and an
// empty search moves the retry time, which a claim leaves alone.
func checkEvictions(t testing.TB, cfg Config, events []trace.Event) evictionCounts {
	t.Helper()
	d := NewDetector(cfg)
	var counts evictionCounts
	var before []*datum
	for i, ev := range events {
		if i == len(events)/2 {
			r, err := NewDetectorFromSnapshot(cfg, d.Snapshot())
			if err != nil {
				t.Fatalf("event %d: restore: %v", i, err)
			}
			d = r
		}
		if ev.Kind == trace.EventBlock {
			d.Block(ev.Block, ev.Instrs)
			continue
		}
		// The access advances the clock before sampling can claim.
		want, wantOK := refEvictStalest(d, d.now+1, d.cfg.staleAfter()/2)
		before = append(before[:0], d.data...)
		retry := d.evictRetry
		d.Access(ev.Addr)
		claimed := -1
		for id, dt := range before {
			if dt != nil && d.data[id] != nil && d.data[id] != dt {
				claimed = id
			}
		}
		switch {
		case claimed >= 0:
			if !wantOK || claimed != want {
				t.Fatalf("event %d: claimed slot %d, scan picks %d (found %v)", i, claimed, want, wantOK)
			}
			counts.claims++
		case d.evictRetry != retry:
			if wantOK {
				t.Fatalf("event %d: found no stale datum, scan picks slot %d", i, want)
			}
			counts.misses++
		}
	}
	return counts
}

// TestEvictStalestMatchesScan holds the recency-list eviction to the
// frozen full scan on Train prefixes of tomcatv and applu (the two
// kernels that claim slots most) and on the three hostile families,
// at datum caps small enough that claims are frequent.
func TestEvictStalestMatchesScan(t *testing.T) {
	n := 600_000
	if raceEnabled {
		n = 150_000
	}
	// Train prefixes run at the default check interval. The hostile
	// runs are shorter, so they run at a tenth of it, which ages datums
	// ten times sooner.
	type stream struct {
		events []trace.Event
		check  int64
	}
	streams := map[string]stream{}
	for _, name := range []string{"tomcatv", "applu"} {
		events := trainEvents(t, name)
		streams[name] = stream{events[:min(n, len(events))], 0}
	}
	for _, spec := range workload.Hostile() {
		rec := trace.NewRecorder(1<<20, 1<<16)
		spec.Make(spec.Params).Run(rec)
		events := rec.T.Events()
		streams["hostile-"+spec.Name] = stream{events[:min(n, len(events))], 1000}
	}
	for name, s := range streams {
		for _, slots := range []int{16, 64} {
			t.Run(fmt.Sprintf("%s/slots=%d", name, slots), func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig()
				cfg.MaxDataSamples = slots
				if s.check > 0 {
					cfg.CheckEvery = s.check
				}
				counts := checkEvictions(t, cfg, s.events)
				if counts.claims == 0 {
					t.Fatalf("no slot claimed from a stale datum (%d empty searches); the stream no longer covers eviction", counts.misses)
				}
				t.Logf("%d claims, %d empty searches", counts.claims, counts.misses)
			})
		}
	}
}

// evictionStream expands a fuzzer pattern into an access stream that
// keeps the datum table churning. A byte below 0xc0 touches one of 64
// regions, each swept cyclically over a length set by the byte, so
// reuse periods and idle times vary from datum to datum; a byte from
// 0xc0 up touches a fresh address, which ages everything else. Every
// phaseLen accesses the bytes shift to other regions, so the datums of
// the regions left behind go stale.
func evictionStream(pattern []byte, n, phaseLen int) []trace.Event {
	events := make([]trace.Event, 0, n)
	var pos [64]int
	fresh := trace.Addr(1 << 40)
	for i := 0; i < n; i++ {
		b := pattern[i%len(pattern)]
		if b >= 0xc0 {
			fresh += 64
			events = append(events, trace.Event{Kind: trace.EventAccess, Addr: fresh})
			continue
		}
		r := (int(b) + 5*(i/phaseLen)) & 63
		span := 8 + int(b>>6)*200 + r*13
		pos[r] = (pos[r] + 1) % span
		addr := trace.Addr(r+1)<<24 + trace.Addr(pos[r])*64
		events = append(events, trace.Event{Kind: trace.EventAccess, Addr: addr})
	}
	return events
}

// FuzzEvictStalestMatchesScan runs checkEvictions on fuzzer-shaped
// streams under fuzzer-chosen datum caps (16–64) and check intervals,
// which set how soon datums go stale.
func FuzzEvictStalestMatchesScan(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0xc0, 3, 0x41, 0x80, 0xff}, uint8(0), uint16(500))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(16), uint16(200))
	f.Add([]byte{0x3f, 0x7f, 0xbf, 0xc1, 0xc2, 0x00, 0x40, 0x80}, uint8(48), uint16(1000))
	f.Add([]byte{5, 5, 5, 0xd0, 9, 0x49, 0x89, 0xe0, 0xe1, 0xe2}, uint8(7), uint16(64))
	f.Fuzz(func(t *testing.T, pattern []byte, slots uint8, check uint16) {
		if len(pattern) == 0 {
			return
		}
		cfg := DefaultConfig()
		cfg.MaxDataSamples = 16 + int(slots)%49
		cfg.CheckEvery = 50 + int64(check)%1000
		checkEvictions(t, cfg, evictionStream(pattern, 20_000, 5*int(cfg.CheckEvery)))
	})
}
