package phase

import (
	"fmt"

	"lpp/internal/codec"
)

// RemapConsumer plans per-phase memory remapping (Section 4.3): each
// identified phase execution gets the data layout its affinity groups
// ask for, installed at the phase boundary by an Impulse-style
// controller. The consumer tracks how often the remap could be staged
// ahead of time — the phase was announced by a PhasePredicted event
// before it ran — versus installed reactively at the boundary, and how
// many announced plans had to be discarded because a different phase
// ran.
type RemapConsumer struct {
	// planned is the phase the bus announced as beginning the current
	// segment (-1 none), i.e. the layout staged ahead of time.
	planned int64

	installs     int64
	plannedAhead int64
	mispredicts  int64

	phases map[int]bool
}

// NewRemapConsumer returns a remap planner.
func NewRemapConsumer() *RemapConsumer {
	return &RemapConsumer{planned: -1, phases: make(map[int]bool)}
}

// Name implements Consumer.
func (c *RemapConsumer) Name() string { return "remap" }

// Consume implements Consumer.
func (c *RemapConsumer) Consume(ev Event) error {
	switch ev.Kind {
	case BoundaryDetected:
		// The segment this boundary ends is the one any pending plan
		// was staged for (the plan arrives right after the boundary
		// that started the segment).
		if c.planned >= 0 {
			if int(c.planned) == ev.Phase {
				c.plannedAhead++
			} else {
				c.mispredicts++
			}
			c.planned = -1
		}
		if ev.Phase >= 0 {
			c.installs++
			c.phases[ev.Phase] = true
		}
	case PhasePredicted:
		c.planned = int64(ev.Phase)
	case PhaseProfile:
	}
	return nil
}

// Report implements Reporter.
func (c *RemapConsumer) Report() string {
	return fmt.Sprintf("installs=%d planned-ahead=%d mispredicts=%d phases=%d",
		c.installs, c.plannedAhead, c.mispredicts, len(c.phases))
}

const remapSnapVersion = 1

// Snapshot implements Consumer.
func (c *RemapConsumer) Snapshot() []byte {
	var e codec.Enc
	e.Num(remapSnapVersion)
	e.I64(c.planned)
	e.I64(c.installs)
	e.I64(c.plannedAhead)
	e.I64(c.mispredicts)
	e.Num(len(c.phases))
	for _, ph := range codec.SortedKeys(c.phases) {
		e.Num(ph)
	}
	return e.Buf
}

// Restore implements Consumer.
func (c *RemapConsumer) Restore(data []byte) error {
	d := codec.NewDec(data, ErrSnapshotCorrupt)
	if v := d.Num(); d.Err() == nil && v != remapSnapVersion {
		return fmt.Errorf("phase: unsupported remap snapshot version %d", v)
	}
	planned := d.I64()
	installs := d.I64()
	plannedAhead := d.I64()
	mispredicts := d.I64()
	n := d.Length(1)
	phases := make(map[int]bool, n)
	for i, ph := 0, 0; i < n && d.Err() == nil; i++ {
		ph = d.Key(i, ph)
		phases[ph] = true
	}
	if err := d.Done(); err != nil {
		return err
	}
	c.planned = planned
	c.installs, c.plannedAhead, c.mispredicts = installs, plannedAhead, mispredicts
	c.phases = phases
	return nil
}
