package phasedet_test

import (
	"slices"
	"testing"

	"lpp/internal/core"
	"lpp/internal/phasedet"
	"lpp/internal/workload"
)

// TestPartitionMatchesReferenceTrainTraces partitions the filtered
// Train trace of each kernel the offline benchmark detects on, at the
// paper's stable α range and Detect's default MaxSpan, and requires
// the boundaries of the frozen partitioner.
func TestPartitionMatchesReferenceTrainTraces(t *testing.T) {
	programs := []string{"tomcatv", "swim", "fft", "mesh"}
	if raceEnabled {
		programs = programs[:1]
	}
	for _, name := range programs {
		t.Run(name, func(t *testing.T) {
			spec, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			det, err := core.Detect(spec.Make(spec.Train), core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]int, len(det.Filtered))
			for i, si := range det.Filtered {
				ids[i] = det.Samples.Samples[si].Data
			}
			for _, alpha := range []float64{0.2, 0.5, 0.8} {
				cfg := phasedet.Config{Alpha: alpha, MaxSpan: 4000}
				got, want := phasedet.Partition(ids, cfg), phasedet.RefPartition(ids, cfg)
				if !slices.Equal(got, want) {
					t.Errorf("alpha %.1f over %d filtered samples: %d boundaries, reference %d",
						alpha, len(ids), len(got), len(want))
				}
			}
		})
	}
}
