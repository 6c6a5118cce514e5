package online

import (
	"testing"

	"lpp/internal/phase"
	"lpp/internal/trace"
)

// phasedStream emits `phases` region sweeps cycling through 10
// disjoint 16KB regions: each phase sweeps its region `sweeps` times
// with an 8-byte stride, so phase switches sit at exact, known logical
// times. Ten regions make a boundary-crossing reuse distance ~10x the
// within-phase distance — the sharp contrast real phase transitions
// show and the sub-trace filter keys on. Sweeps should be at least
// MinSubTrace+2 so data samples mature within a single phase visit, as
// real workloads' do.
const streamRegions = 10

const streamElems = 2048 // distinct addresses per region

func phasedStream(ins trace.Instrumenter, phases, sweeps int) (switchTimes []int64, perPhase int64) {
	const elems = streamElems
	perPhase = int64(sweeps * elems)
	var now int64
	for p := 0; p < phases; p++ {
		base := trace.Addr(uint64(p%streamRegions) * 10 << 20)
		ins.Block(trace.BlockID(p%streamRegions), 64)
		for s := 0; s < sweeps; s++ {
			for i := 0; i < elems; i++ {
				ins.Access(base + trace.Addr(i*8))
				now++
			}
		}
		if p < phases-1 {
			switchTimes = append(switchTimes, now)
		}
	}
	return switchTimes, perPhase
}

// collecting returns a detector that appends every event to *evs.
func collecting(cfg Config, evs *[]phase.Event) *Detector {
	cfg.OnEvent = func(ev phase.Event) { *evs = append(*evs, ev) }
	return NewDetector(cfg)
}

func TestDetectorFindsSyntheticPhaseSwitches(t *testing.T) {
	var evs []phase.Event
	d := collecting(Config{}, &evs)
	switches, perPhase := phasedStream(d, 25, 6)
	d.Flush()

	var boundaries []int64
	phaseIDs := make(map[int]bool)
	predictions := 0
	for _, ev := range evs {
		switch ev.Kind {
		case phase.BoundaryDetected:
			boundaries = append(boundaries, ev.Time)
			phaseIDs[ev.Phase] = true
		case phase.PhasePredicted:
			predictions++
		}
	}
	if len(boundaries) < len(switches)/2 {
		t.Fatalf("found %d boundaries for %d phase switches", len(boundaries), len(switches))
	}
	for i := 1; i < len(boundaries); i++ {
		if boundaries[i] <= boundaries[i-1] {
			t.Fatalf("boundaries not increasing: %v", boundaries)
		}
	}
	// Every true switch must have a detected boundary nearby. The
	// tolerance allows the sampling lag on a region's first-ever
	// visit: distance-based sampling cannot see data it has no reuse
	// for, so cycle-one boundaries trail the switch by about a sweep.
	tol := perPhase / 4
	for _, sw := range switches {
		ok := false
		for _, b := range boundaries {
			if b-sw < tol && sw-b < tol {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("no boundary within %d of true switch at %d (got %v)", tol, sw, boundaries)
		}
	}
	// Ten cycling regions must collapse to about ten recurring phase
	// identities, not one new ID per segment.
	if len(phaseIDs) > streamRegions+3 {
		t.Errorf("%d distinct phase IDs for a %d-region cycle", len(phaseIDs), streamRegions)
	}
	// The cycle is regular, so the hierarchy automaton must
	// eventually determine next phases.
	if predictions == 0 {
		t.Error("no phase predictions for a regular cycle")
	}
}

func TestDetectorDeterministic(t *testing.T) {
	run := func() (evs []phase.Event) {
		d := collecting(Config{}, &evs)
		phasedStream(d, 15, 6)
		d.Flush()
		return evs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestPressureShedsLoad(t *testing.T) {
	d := NewDetector(Config{})
	d.SetPressure(1)
	if st := d.Stats(); st.Stride != DefaultConfig().MaxStride {
		t.Fatalf("stride = %d at full pressure, want %d", st.Stride, DefaultConfig().MaxStride)
	}
	phasedStream(d, 4, 6)
	st := d.Stats()
	if st.Shed == 0 {
		t.Error("no accesses shed at full pressure")
	}
	// Shed accesses still advance logical time.
	if want := int64(4 * 6 * streamElems); st.Accesses != want {
		t.Errorf("Accesses = %d, want %d", st.Accesses, want)
	}
	d.SetPressure(0)
	if st := d.Stats(); st.Stride != 1 {
		t.Errorf("stride = %d after pressure released", st.Stride)
	}
	d.SetPressure(0.5)
	if st := d.Stats(); st.Stride <= 1 || st.Stride >= DefaultConfig().MaxStride {
		t.Errorf("stride = %d at half pressure", st.Stride)
	}
}

// TestEventBufferBounded: the detector keeps no events. With a nil
// OnEvent it discards them, so a long stream leaves nothing behind: the
// snapshot's pending-event section stays empty and nothing is dropped.
func TestEventBufferBounded(t *testing.T) {
	d := NewDetector(DefaultConfig())
	phasedStream(d, 30, 6)
	d.Flush()
	st := d.Stats()
	if st.Boundaries == 0 {
		t.Fatal("no boundaries: the stream emitted nothing to discard")
	}
	if st.DroppedEvents != 0 {
		t.Errorf("dropped %d events", st.DroppedEvents)
	}
	r, err := NewDetectorFromSnapshot(DefaultConfig(), d.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if a, b := st, r.Stats(); a != b {
		t.Errorf("restored stats differ:\n  original %+v\n  restored %+v", a, b)
	}
}

// TestOnEventCallbackBypassesBuffer: every boundary and prediction
// the detector counts goes straight to the callback, and none is
// dropped.
func TestOnEventCallbackBypassesBuffer(t *testing.T) {
	var got []phase.Event
	d := collecting(DefaultConfig(), &got)
	phasedStream(d, 15, 6)
	d.Flush()
	if len(got) == 0 {
		t.Fatal("callback saw no events")
	}
	if st := d.Stats(); st.DroppedEvents != 0 || st.Boundaries+st.Predictions != int64(len(got)) {
		t.Errorf("callback saw %d events; stats %+v", len(got), st)
	}
}

func TestFlushOnEmptyDetector(t *testing.T) {
	var evs []phase.Event
	d := collecting(Config{}, &evs)
	d.Flush() // must not panic with no input
	if len(evs) != 0 {
		t.Errorf("events from empty stream: %v", evs)
	}
}
