package online

import (
	"testing"

	"lpp/internal/core"
	"lpp/internal/phase"
	"lpp/internal/trace"
	"lpp/internal/workload"
)

// parityCase pins, per benchmark, how closely the streaming detector's
// boundaries must agree with the offline pipeline's on the same trace.
// Recall is the fraction of offline boundaries with an online boundary
// within 2% of the trace length. Exact agreement is not expected — the
// online detector samples by rate instead of whole-run pacing, filters
// over sliding windows, and partitions with bounded context — but the
// phase signal must survive those deltas on every workload.
type parityCase struct {
	name          string
	train         workload.Params
	keepIrregular bool
	minRecall     float64
	// tolDiv divides the trace length into the match tolerance
	// (0 means 50, i.e. 2%). Long-period workloads get a wider
	// tolerance: Swim's phases each span ~1/6 of the trace, and the
	// two pipelines place a time step's boundary at different points
	// inside the step transition.
	tolDiv int64
}

func parityCases() []parityCase {
	return []parityCase{
		{"fft", workload.Params{N: 512, Steps: 6, Seed: 1}, false, 0.90, 0},
		{"applu", workload.Params{N: 14, Steps: 5, Seed: 1}, false, 0.40, 0},
		{"compress", workload.Params{N: 8192, Steps: 5, Seed: 1}, false, 0.65, 0},
		{"gcc", workload.Params{N: 60, Steps: 20, Seed: 1}, true, 0.50, 0},
		{"tomcatv", workload.Params{N: 48, Steps: 6, Seed: 1}, false, 0.70, 0},
		{"swim", workload.Params{N: 48, Steps: 6, Seed: 1}, false, 0.55, 25},
		{"vortex", workload.Params{N: 1 << 12, Steps: 6, Seed: 1}, true, 0.90, 0},
		{"mesh", workload.Params{N: 2048, Steps: 6, Seed: 1}, false, 0.75, 0},
		{"moldyn", workload.Params{N: 200, Steps: 6, Seed: 1}, false, 0.70, 0},
	}
}

// TestOnlineOfflineBoundaryParity streams each of the nine workloads
// through the online detector and checks its boundaries against
// offline core.DetectTrace on the identical recorded trace.
func TestOnlineOfflineBoundaryParity(t *testing.T) {
	if testing.Short() {
		t.Skip("parity sweep is seconds-long; skipped in -short")
	}
	for _, c := range parityCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			spec, err := workload.ByName(c.name)
			if err != nil {
				t.Fatal(err)
			}
			rec := trace.NewRecorder(1<<20, 1<<16)
			spec.Make(c.train).Run(rec)

			ccfg := core.DefaultConfig()
			ccfg.KeepIrregular = c.keepIrregular
			det, err := core.DetectTrace(&rec.T, ccfg)
			if err != nil {
				t.Fatal(err)
			}

			var online []int64
			ocfg := DefaultConfig()
			ocfg.KeepIrregular = c.keepIrregular
			ocfg.OnEvent = func(ev phase.Event) {
				if ev.Kind == phase.BoundaryDetected {
					online = append(online, ev.Time)
				}
			}
			od := NewDetector(ocfg)
			rec.T.Replay(od)
			od.Flush()

			n := int64(len(rec.T.Accesses))
			for i, b := range online {
				if b < 0 || b >= n {
					t.Fatalf("boundary %d out of range [0,%d)", b, n)
				}
				if i > 0 && b <= online[i-1] {
					t.Fatalf("boundaries not strictly increasing at %d", i)
				}
			}

			if len(det.Boundaries) == 0 {
				t.Fatal("offline found no boundaries; case is vacuous")
			}
			tolDiv := c.tolDiv
			if tolDiv == 0 {
				tolDiv = 50
			}
			tol := n / tolDiv
			matched := 0
			for _, b := range det.Boundaries {
				for _, o := range online {
					if o-b < tol && b-o < tol {
						matched++
						break
					}
				}
			}
			recall := float64(matched) / float64(len(det.Boundaries))
			if recall < c.minRecall {
				t.Errorf("recall = %.2f (%d/%d matched), want >= %.2f",
					recall, matched, len(det.Boundaries), c.minRecall)
			}
			// Granularity sanity: online must not be off by an order
			// of magnitude in either direction.
			if len(online)*12 < len(det.Boundaries) || len(online) > 12*len(det.Boundaries) {
				t.Errorf("boundary counts diverge: online %d vs offline %d",
					len(online), len(det.Boundaries))
			}
		})
	}
}
