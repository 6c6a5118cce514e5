package online

import (
	"testing"

	"lpp/internal/phase"
	"lpp/internal/stats"
	"lpp/internal/trace"
	"lpp/internal/workload"
)

// adversarialStream feeds the detector an access pattern built to blow
// every unhardened structure: a never-recurring page walk (the open
// segment's signature grows forever without MaxSignature) punctuated by
// abrupt working-set switches between seeded footprints (an endless
// supply of novel phase IDs, so the grammar never compresses and hits
// MaxGrammar over and over).
func adversarialStream(d *Detector, accesses int, seed uint64) {
	rng := stats.NewRNG(seed)
	base := trace.Addr(1) << 32
	done := 0
	for done < accesses {
		// One ephemeral "phase": a working set of ~2000 addresses at
		// page stride, swept repeatedly (so reuse distances clear the
		// qualification threshold and samples flow), in a footprint no
		// earlier phase touched and no later phase will.
		base += trace.Addr(1+rng.Intn(64)) << 28
		set := 1500 + rng.Intn(1000)
		d.Block(trace.BlockID(done), 4)
		for sweep := 0; sweep < 10 && done < accesses; sweep++ {
			for i := 0; i < set && done < accesses; i++ {
				d.Access(base + trace.Addr(i)<<16) // one 64KB page per datum
				done++
			}
		}
	}
}

// TestHardeningBoundsAdversarialStream is the adversarial counterpart
// of TestBoundedMemoryOverLongStream: under small caps, a hostile
// stream must keep every gauge bounded and must actually trip the
// hardening fallbacks (grammar restarts, signature truncation) rather
// than merely never needing them.
func TestHardeningBoundsAdversarialStream(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxLive = 4096
	cfg.MaxDataSamples = 128
	cfg.MaxGrammar = 48
	cfg.PhaseTail = 16
	cfg.MaxPhases = 16
	cfg.MaxSignature = 64
	d := NewDetector(cfg)

	const rounds = 8
	for r := 0; r < rounds; r++ {
		adversarialStream(d, 200_000, uint64(r+1))
		st := d.Stats()
		if st.GrammarSize > cfg.MaxGrammar {
			t.Fatalf("round %d: grammar size %d > cap %d", r, st.GrammarSize, cfg.MaxGrammar)
		}
		if st.LargestSignature > cfg.MaxSignature {
			t.Fatalf("round %d: signature %d pages > cap %d", r, st.LargestSignature, cfg.MaxSignature)
		}
		if st.Phases > cfg.MaxPhases {
			t.Fatalf("round %d: phases %d > cap %d", r, st.Phases, cfg.MaxPhases)
		}
		if st.DataSamples > cfg.MaxDataSamples {
			t.Fatalf("round %d: data samples %d > cap %d", r, st.DataSamples, cfg.MaxDataSamples)
		}
		if st.WindowLen > BoundaryWindow {
			t.Fatalf("round %d: window %d > cap %d", r, st.WindowLen, BoundaryWindow)
		}
	}
	d.Flush()

	st := d.Stats()
	if st.Boundaries == 0 {
		t.Fatalf("adversarial stream produced no boundaries; the caps never engaged")
	}
	if st.GrammarRestarts == 0 {
		t.Errorf("grammar never restarted: the MaxGrammar fallback was not exercised (size %d)", st.GrammarSize)
	}
	if st.TruncatedPages == 0 {
		t.Errorf("no signature pages truncated: the MaxSignature cap was not exercised (largest %d)", st.LargestSignature)
	}
}

// TestMinBoundaryGapSuppresses pins the margin guard's contract: with
// a gap configured, no two emitted boundaries are closer than the gap,
// every rejection is counted, and with the gap disabled (the default)
// behavior is exactly the ungated detector's.
func TestMinBoundaryGapSuppresses(t *testing.T) {
	spec, err := workload.HostileByName("interleaved")
	if err != nil {
		t.Fatal(err)
	}
	p := spec.Params
	p.Quantum = 500 // fine-grained slicing: boundary jitter on purpose
	rec := trace.NewRecorder(0, 0)
	spec.Make(p).Run(rec)

	run := func(gap int64) (boundaries []int64, st Stats) {
		cfg := DefaultConfig()
		cfg.MinBoundaryGap = gap
		cfg.OnEvent = func(ev phase.Event) {
			if ev.Kind == phase.BoundaryDetected {
				boundaries = append(boundaries, ev.Time)
			}
		}
		d := NewDetector(cfg)
		rec.T.Replay(d)
		d.Flush()
		return boundaries, d.Stats()
	}

	const gap = 4000
	gated, gst := run(gap)
	if gst.SuppressedBoundaries == 0 {
		t.Fatalf("gap %d suppressed nothing on a quantum-500 interleaved stream", gap)
	}
	for i := 1; i < len(gated); i++ {
		if gated[i]-gated[i-1] < gap {
			t.Fatalf("boundaries %d and %d only %d apart, gap %d", gated[i-1], gated[i], gated[i]-gated[i-1], gap)
		}
	}

	open, ost := run(0)
	if ost.SuppressedBoundaries != 0 {
		t.Fatalf("disabled guard counted %d suppressions", ost.SuppressedBoundaries)
	}
	if len(open) <= len(gated) {
		t.Fatalf("guard suppressed %d boundaries but emitted %d vs %d ungated",
			gst.SuppressedBoundaries, len(gated), len(open))
	}
}

// TestHardenedSnapshotRoundTrip proves the new counters and config
// fields ride the snapshot: a restored detector reports the same
// hardening stats and keeps suppressing identically.
func TestHardenedSnapshotRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinBoundaryGap = 2000
	cfg.MaxGrammar = 48
	cfg.MaxSignature = 64
	cfg.MaxPhases = 16
	cfg.PhaseTail = 16
	d := NewDetector(cfg)
	adversarialStream(d, 300_000, 42)

	snap := d.Snapshot()
	r, err := NewDetectorFromSnapshot(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	a, b := d.Stats(), r.Stats()
	if a != b {
		t.Fatalf("restored stats differ:\n  original %+v\n  restored %+v", a, b)
	}

	// A different hardening config must be refused.
	other := cfg
	other.MinBoundaryGap = 9999
	if _, err := NewDetectorFromSnapshot(other, snap); err == nil {
		t.Fatalf("snapshot accepted under a different MinBoundaryGap")
	}
	other = cfg
	other.MaxSignature = 128
	if _, err := NewDetectorFromSnapshot(other, snap); err == nil {
		t.Fatalf("snapshot accepted under a different MaxSignature")
	}
}
