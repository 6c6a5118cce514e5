package online

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"testing"

	"lpp/internal/codec"
	"lpp/internal/phase"
	"lpp/internal/trace"
	"lpp/internal/workload"
)

// collectEvents records a workload run as a replayable event list.
type eventCollector struct{ events []trace.Event }

func (c *eventCollector) Block(id trace.BlockID, instrs int) {
	c.events = append(c.events, trace.Event{Kind: trace.EventBlock, Block: id, Instrs: instrs})
}
func (c *eventCollector) Access(addr trace.Addr) {
	c.events = append(c.events, trace.Event{Kind: trace.EventAccess, Addr: addr})
}

// runStraight feeds every event through one detector and returns its
// output events.
func runStraight(cfg Config, events []trace.Event) []phase.Event {
	var out []phase.Event
	cfg.OnEvent = func(ev phase.Event) { out = append(out, ev) }
	d := NewDetector(cfg)
	for _, ev := range events {
		ev.Feed(d)
	}
	d.Flush()
	return out
}

// runInterrupted feeds the stream with a snapshot+restore into a brand
// new detector at every cut point, simulating a crash and recovery.
func runInterrupted(t *testing.T, cfg Config, events []trace.Event, cuts []int) []phase.Event {
	t.Helper()
	var out []phase.Event
	cfg.OnEvent = func(ev phase.Event) { out = append(out, ev) }
	d := NewDetector(cfg)
	prev := 0
	for _, cut := range cuts {
		for _, ev := range events[prev:cut] {
			ev.Feed(d)
		}
		prev = cut
		snap := d.Snapshot()
		nd, err := NewDetectorFromSnapshot(cfg, snap)
		if err != nil {
			t.Fatalf("restore at event %d: %v", cut, err)
		}
		// The restored detector must itself re-snapshot to identical
		// bytes: Snapshot∘Restore is the identity on state.
		if again := nd.Snapshot(); !bytes.Equal(snap, again) {
			t.Fatalf("re-snapshot at event %d differs: %d vs %d bytes", cut, len(snap), len(again))
		}
		d = nd
	}
	for _, ev := range events[prev:] {
		ev.Feed(d)
	}
	d.Flush()
	return out
}

func assertSameEvents(t *testing.T, got, want []phase.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("event count %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestSnapshotRestoreParitySynthetic interrupts a synthetic phased
// stream at several points; boundaries and predictions must be
// identical to the uninterrupted run.
func TestSnapshotRestoreParitySynthetic(t *testing.T) {
	var col eventCollector
	phasedStream(&col, 20, 6)
	cfg := Config{}
	want := runStraight(cfg, col.events)
	if len(want) == 0 {
		t.Fatal("workload produced no phase events; parity is vacuous")
	}
	n := len(col.events)
	got := runInterrupted(t, cfg, col.events, []int{1, n / 5, n / 3, n / 2, 4 * n / 5})
	assertSameEvents(t, got, want)
}

// TestSnapshotRestoreParityWorkloads runs the full nine-workload sweep:
// for each workload the stream is cut mid-run, snapshotted, restored
// into a fresh detector, and must emit exactly the boundaries and
// next-phase predictions of the uninterrupted run.
func TestSnapshotRestoreParityWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("nine-workload sweep is seconds-long; skipped in -short")
	}
	for _, c := range parityCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			spec, err := workload.ByName(c.name)
			if err != nil {
				t.Fatal(err)
			}
			var col eventCollector
			spec.Make(c.train).Run(&col)

			cfg := Config{KeepIrregular: c.keepIrregular}
			want := runStraight(cfg, col.events)
			if len(want) == 0 {
				t.Fatal("workload produced no phase events; parity is vacuous")
			}
			n := len(col.events)
			got := runInterrupted(t, cfg, col.events, []int{n / 4, 2 * n / 4, 3 * n / 4})
			assertSameEvents(t, got, want)
		})
	}
}

func TestSnapshotConfigMismatch(t *testing.T) {
	d := NewDetector(Config{})
	phasedStream(d, 3, 6)
	snap := d.Snapshot()
	other := DefaultConfig()
	other.MaxDataSamples = 99
	if _, err := NewDetectorFromSnapshot(other, snap); !errors.Is(err, ErrSnapshotConfig) {
		t.Fatalf("restore under different config: err = %v, want ErrSnapshotConfig", err)
	}
}

// TestSnapshotRejectsCorrupt sweeps truncations, bit flips, and a
// version skew over a real snapshot: decode must detect every one and
// must never partially apply (the detector stays usable).
func TestSnapshotRejectsCorrupt(t *testing.T) {
	d := NewDetector(Config{})
	phasedStream(d, 6, 6)
	snap := d.Snapshot()

	fresh := func() *Detector { return NewDetector(Config{}) }
	for cut := 0; cut < len(snap); cut += 1 + cut/16 {
		if err := fresh().Restore(snap[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	for off := 0; off < len(snap); off += 1 + off/16 {
		bad := append([]byte(nil), snap...)
		bad[off] ^= 0x40
		if err := fresh().Restore(bad); err == nil {
			t.Fatalf("bit flip at byte %d accepted", off)
		}
	}
	// Version skew: bump the version byte and fix up the CRC so only
	// the version check can reject it.
	skew := append([]byte(nil), snap...)
	skew[len(snapMagic)] = snapVersion + 1
	skew = skew[:len(skew)-4]
	skew = binary.LittleEndian.AppendUint32(skew, crc32.ChecksumIEEE(skew))
	if err := fresh().Restore(skew); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("version skew: err = %v, want ErrSnapshotVersion", err)
	}
	// Analyzer buckets whose counts sum right but disagree with the
	// last-access times they cover, under a valid CRC.
	if err := fresh().Restore(miscountedSnapshot(t, d)); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("miscounted analyzer buckets: err = %v, want ErrSnapshotCorrupt", err)
	}
	// Sampling thresholds no feedback step produces, under a valid CRC:
	// a zero qualification threshold would sample every non-cold
	// access forever.
	for _, th := range [][3]int64{{0, 512, 1024}, {512, 0, 1024}, {512, 512, 0}, {-512, 512, 1024}} {
		if err := fresh().Restore(thresholdSnapshot(t, d, th)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("thresholds %v: err = %v, want ErrSnapshotCorrupt", th, err)
		}
	}
	// Datums no live detector holds, under a valid CRC: an empty
	// window, and sample times at or after the clock. Either would put
	// the datum out of place in the recency list.
	for _, c := range []struct {
		name string
		snap []byte
	}{
		{"empty window", emptyDatumSnapshot(t, d)},
		{"sample at clock", lateDatumSnapshot(t, d, 0)},
		{"sample after clock", lateDatumSnapshot(t, d, 1000)},
	} {
		if err := fresh().Restore(c.snap); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s: err = %v, want ErrSnapshotCorrupt", c.name, err)
		}
	}

	// A failed restore must leave the target detector intact.
	target := NewDetector(Config{})
	phasedStream(target, 2, 6)
	before := target.Snapshot()
	bad := append([]byte(nil), snap...)
	bad[len(bad)/2] ^= 1
	if err := target.Restore(bad); err == nil {
		t.Fatal("corrupt restore accepted")
	}
	if !bytes.Equal(before, target.Snapshot()) {
		t.Fatal("failed restore mutated the detector")
	}
}

// FuzzSnapshotRestore asserts decode never panics and that a restored
// detector is immediately usable.
func FuzzSnapshotRestore(f *testing.F) {
	d := NewDetector(Config{})
	phasedStream(d, 6, 6)
	valid := d.Snapshot()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	f.Add([]byte(snapMagic))
	f.Add([]byte("garbage"))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	skew := append([]byte(nil), valid...)
	skew[len(snapMagic)] = snapVersion + 1
	skew = skew[:len(skew)-4]
	skew = binary.LittleEndian.AppendUint32(skew, crc32.ChecksumIEEE(skew))
	f.Add(skew)
	f.Add(miscountedSnapshot(f, d))
	f.Add(thresholdSnapshot(f, d, [3]int64{0, 512, 1024}))
	f.Add(emptyDatumSnapshot(f, d))
	f.Add(lateDatumSnapshot(f, d, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		nd := NewDetector(Config{})
		if err := nd.Restore(data); err != nil {
			return
		}
		// Whatever decoded must hold together under use.
		for i := 0; i < 256; i++ {
			nd.Access(trace.Addr(i * 64))
		}
		nd.Flush()
		nd.Snapshot()
	})
}

// miscountedSnapshot returns d's snapshot with one count moved from a
// merged analyzer bucket to a neighbour, resealed. Every length, sum and
// checksum still holds; only the census of last-access times per bucket
// is off, which no encoder writes.
func miscountedSnapshot(tb testing.TB, d *Detector) []byte {
	tb.Helper()
	ast := d.analyzer.State()
	section := func(counts []int64) []byte {
		var e codec.Enc
		e.Num(len(ast.BucketTimes))
		for i, bt := range ast.BucketTimes {
			e.I64(bt)
			e.I64(counts[i])
		}
		return e.Buf
	}
	j := slices.IndexFunc(ast.BucketCounts, func(c int64) bool { return c > 1 })
	if j < 0 || len(ast.BucketCounts) < 2 {
		tb.Fatalf("no merged bucket with a neighbour among %d", len(ast.BucketCounts))
	}
	bad := slices.Clone(ast.BucketCounts)
	bad[j]--
	to := j - 1
	if j == 0 {
		to = 1
	}
	bad[to]++
	body := d.Snapshot()
	body = body[:len(body)-4]
	old := section(ast.BucketCounts)
	at := bytes.Index(body, old)
	if at < 0 || bytes.Contains(body[at+1:], old) {
		tb.Fatal("analyzer bucket section not found exactly once in the snapshot")
	}
	out := append(slices.Clone(body[:at]), section(bad)...)
	return codec.Seal(append(out, body[at+len(old):]...))
}

// thresholdSnapshot returns d's snapshot with its sampling thresholds
// (qualification, temporal, spatial) replaced by th, resealed.
func thresholdSnapshot(tb testing.TB, d *Detector, th [3]int64) []byte {
	tb.Helper()
	scalars := func(qual, temporal, spatial int64) []byte {
		var e codec.Enc
		for _, v := range []int64{d.now, d.blocks, d.instrs, qual, temporal, spatial} {
			e.I64(v)
		}
		return e.Buf
	}
	body := d.Snapshot()
	body = body[:len(body)-4]
	header := len(snapMagic) + 1 + 8
	old := scalars(d.sel.Qual, d.sel.Temporal, d.sel.Spatial)
	if !bytes.HasPrefix(body[header:], old) {
		tb.Fatal("threshold scalars not found after the snapshot header")
	}
	out := append(slices.Clone(body[:header]), scalars(th[0], th[1], th[2])...)
	return codec.Seal(append(out, body[header+len(old):]...))
}

// datumSnapshot returns the snapshot of a copy of d whose first
// tracked datum mutate has changed. Snapshot writes whatever state it
// finds, so the image is sealed like any other.
func datumSnapshot(tb testing.TB, d *Detector, mutate func(c *Detector, dt *datum)) []byte {
	tb.Helper()
	c, err := NewDetectorFromSnapshot(d.cfg, d.Snapshot())
	if err != nil {
		tb.Fatal(err)
	}
	i := slices.IndexFunc(c.data, func(dt *datum) bool { return dt != nil })
	if i < 0 {
		tb.Fatal("no tracked datum")
	}
	mutate(c, c.data[i])
	return c.Snapshot()
}

// emptyDatumSnapshot returns d's snapshot with one datum's window
// emptied.
func emptyDatumSnapshot(tb testing.TB, d *Detector) []byte {
	return datumSnapshot(tb, d, func(_ *Detector, dt *datum) {
		dt.times, dt.dists, dt.undecided = nil, nil, 0
	})
}

// lateDatumSnapshot returns d's snapshot with one datum's last sample
// moved to the clock plus ahead.
func lateDatumSnapshot(tb testing.TB, d *Detector, ahead int64) []byte {
	return datumSnapshot(tb, d, func(c *Detector, dt *datum) {
		dt.times[len(dt.times)-1] = c.now + ahead
	})
}

// TestIntSetRejectsUnwrittenBytes pins that a page-signature set
// decodes only from strictly ascending members, the one order
// encIntSet writes: duplicates and unordered members are corrupt.
func TestIntSetRejectsUnwrittenBytes(t *testing.T) {
	for _, c := range []struct {
		name string
		data []byte
		ok   bool
	}{
		{"ascending", []byte{0x04, 0x02, 0x04}, true},
		{"unordered", []byte{0x04, 0x04, 0x02}, false},
		{"duplicate", []byte{0x04, 0x02, 0x02}, false},
	} {
		d := codec.NewDec(c.data, ErrSnapshotCorrupt)
		set := decIntSet(d)
		err := d.Done()
		switch {
		case c.ok && (err != nil || len(set) != 2):
			t.Errorf("%s: decoded %v, %v", c.name, set, err)
		case !c.ok && !errors.Is(err, ErrSnapshotCorrupt):
			t.Errorf("%s: err = %v, want ErrSnapshotCorrupt", c.name, err)
		}
	}
}
