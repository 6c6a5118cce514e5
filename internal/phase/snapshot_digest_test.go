package phase_test

import (
	"hash/fnv"
	"testing"

	"lpp/internal/core"
	"lpp/internal/phase"
	"lpp/internal/predictor"
	"lpp/internal/workload"
)

// digestPrograms are golden workloads whose offline bus streams (real
// locality vectors, recurring phases, next-phase predictions) feed the
// consumer-state digests.
var digestPrograms = []struct {
	name   string
	params workload.Params
}{
	{"fft", workload.Params{N: 512, Steps: 20, Seed: 1}},
	{"tomcatv", workload.Params{N: 48, Steps: 20, Seed: 1}},
	{"mesh", workload.Params{N: 2048, Steps: 20, Seed: 1}},
}

// recorder is a phase.Consumer that keeps every event it is fed.
type recorder struct{ events []phase.Event }

func (r *recorder) Name() string                 { return "recorder" }
func (r *recorder) Consume(ev phase.Event) error { r.events = append(r.events, ev); return nil }
func (r *recorder) Snapshot() []byte             { return nil }
func (r *recorder) Restore([]byte) error         { return nil }

// offlineBusStream returns the phase-bus stream of a golden workload's
// offline predicted run.
func offlineBusStream(t *testing.T, name string, params workload.Params) []phase.Event {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.Detect(spec.Make(params), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var rec recorder
	core.PredictAllWith(spec.Make(params), det, &rec, predictor.Relaxed)
	if len(rec.events) == 0 {
		t.Fatalf("%s: empty bus stream", name)
	}
	return rec.events
}

// consumerDigests are fnv64a digests of each stock consumer's state
// bytes, recorded before the snapshot codec was shared between
// packages: they pin that every consumer's format is unchanged.
var consumerDigests = map[string]uint64{
	"predictor":        0x63963ecbb7c5350e,
	"predictor:strict": 0xd4feafd9f82a2b25,
	"cacheresize":      0x480aea85ca91953f,
	"dvfs":             0xdf2006c78a6d013e,
	"remap":            0x8ce66ff174721d59,
}

// TestConsumerSnapshotBytesDigest feeds each stock consumer, alone, the
// bus streams of the digest programs one after another and hashes its
// Snapshot after every event. A change to any state byte moves the
// digest.
func TestConsumerSnapshotBytesDigest(t *testing.T) {
	streams := make([][]phase.Event, len(digestPrograms))
	for i, p := range digestPrograms {
		streams[i] = offlineBusStream(t, p.name, p.params)
	}
	for spec, want := range consumerDigests {
		t.Run(spec, func(t *testing.T) {
			c, err := phase.Stock(spec)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			snaps := 0
			for _, evs := range streams {
				for _, ev := range evs {
					if err := c.Consume(ev); err != nil {
						t.Fatal(err)
					}
					h.Write(c.Snapshot())
					snaps++
				}
			}
			if got := h.Sum64(); got != want {
				t.Errorf("%d snapshots digest to %#x, want %#x", snaps, got, want)
			}
		})
	}
}
