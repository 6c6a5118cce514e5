package torture

import (
	"testing"

	"lpp/internal/online"
)

// familyFloor is the calibrated acceptance floor for one hostile
// family. The floors sit well under the measured values (seed 1,
// scale 1: interleaved 0.71/0.44/1.00, drift 0.91/0.32/0.72, adaptive
// 0.50/0.22/0.58 for offline-recall/truth-recall/truth-precision) so
// they fail on regressions, not on noise — but every floor is high
// enough that a detector that stopped tracking a family's structure
// cannot pass.
type familyFloor struct {
	offlineRecall  float64
	truthRecall    float64
	truthPrecision float64
}

var floors = map[string]familyFloor{
	"interleaved": {offlineRecall: 0.55, truthRecall: 0.25, truthPrecision: 0.85},
	"drift":       {offlineRecall: 0.70, truthRecall: 0.15, truthPrecision: 0.50},
	"adaptive":    {offlineRecall: 0.35, truthRecall: 0.10, truthPrecision: 0.40},
}

// TestDifferentialParity is the pinning run: every hostile family
// through all three detection paths, asserting exact HTTP parity,
// offline/online boundary agreement, precision/recall against ground
// truth, and memory gauges bounded by the default caps.
func TestDifferentialParity(t *testing.T) {
	reports, err := RunAll(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(floors) {
		t.Fatalf("got %d reports, want %d", len(reports), len(floors))
	}
	def := online.DefaultConfig()
	for _, rep := range reports {
		rep := rep
		t.Run(rep.Family, func(t *testing.T) {
			floor, ok := floors[rep.Family]
			if !ok {
				t.Fatalf("no calibrated floor for family %q", rep.Family)
			}
			t.Logf("report: %+v", *rep)

			// Three-way parity. The HTTP path must be byte-identical
			// to the direct detector: one synchronous client means no
			// load shedding, so any divergence is a codec or state bug.
			if !rep.HTTPParity {
				t.Errorf("HTTP path diverged from direct detector (%d direct boundaries, %d http events)",
					rep.OnlineBoundaries, rep.HTTPEvents)
			}
			if rep.OfflineBoundaries == 0 {
				t.Errorf("offline pipeline found no boundaries")
			}
			if rep.OnlineBoundaries == 0 {
				t.Errorf("online detector found no boundaries")
			}
			if rep.OfflineRecall < floor.offlineRecall {
				t.Errorf("offline recall %.3f below floor %.3f", rep.OfflineRecall, floor.offlineRecall)
			}

			// Granularity sanity (the PR 1 parity rule): the two
			// pipelines may cut at different grain but not wildly so.
			if rep.OnlineBoundaries > 12*rep.OfflineBoundaries ||
				rep.OfflineBoundaries > 12*rep.OnlineBoundaries {
				t.Errorf("granularity blowup: offline %d vs online %d boundaries",
					rep.OfflineBoundaries, rep.OnlineBoundaries)
			}

			// Ground truth: the generator knows where its phases are.
			if rep.TruthRecall < floor.truthRecall {
				t.Errorf("truth recall %.3f below floor %.3f", rep.TruthRecall, floor.truthRecall)
			}
			if rep.TruthPrecision < floor.truthPrecision {
				t.Errorf("truth precision %.3f below floor %.3f", rep.TruthPrecision, floor.truthPrecision)
			}

			// Bounded memory under the default caps.
			if rep.MaxGrammarSize > def.MaxGrammar {
				t.Errorf("grammar size %d exceeded cap %d", rep.MaxGrammarSize, def.MaxGrammar)
			}
			if rep.MaxSignature > def.MaxSignature {
				t.Errorf("signature %d pages exceeded cap %d", rep.MaxSignature, def.MaxSignature)
			}
			if rep.MaxWindow > online.BoundaryWindow {
				t.Errorf("boundary window %d exceeded cap %d", rep.MaxWindow, online.BoundaryWindow)
			}
			if rep.MaxPhases > def.MaxPhases {
				t.Errorf("phase count %d exceeded cap %d", rep.MaxPhases, def.MaxPhases)
			}
		})
	}
}

// TestHardenedParity reruns every family under aggressively small caps:
// the detector must stay inside them and the HTTP path must still
// reproduce the direct detector exactly — hardening fallbacks are
// deterministic state transitions, not a divergence license.
func TestHardenedParity(t *testing.T) {
	cfg := online.DefaultConfig()
	cfg.MaxGrammar = 64
	cfg.PhaseTail = 16
	cfg.MaxPhases = 16
	cfg.MaxSignature = 32
	cfg.MinBoundaryGap = 1000
	reports, err := RunAll(Options{Online: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		if !rep.HTTPParity {
			t.Errorf("%s: hardened HTTP path diverged from direct detector", rep.Family)
		}
		if rep.MaxGrammarSize > cfg.MaxGrammar {
			t.Errorf("%s: grammar size %d exceeded hardened cap %d", rep.Family, rep.MaxGrammarSize, cfg.MaxGrammar)
		}
		if rep.MaxSignature > cfg.MaxSignature {
			t.Errorf("%s: signature %d exceeded hardened cap %d", rep.Family, rep.MaxSignature, cfg.MaxSignature)
		}
		if rep.MaxPhases > cfg.MaxPhases {
			t.Errorf("%s: phases %d exceeded hardened cap %d", rep.Family, rep.MaxPhases, cfg.MaxPhases)
		}
		if rep.OnlineBoundaries == 0 {
			t.Errorf("%s: hardened detector found no boundaries at all", rep.Family)
		}
	}
}

// TestRunUnknownFamily pins the error path.
func TestRunUnknownFamily(t *testing.T) {
	if _, err := Run("nonesuch", Options{}); err == nil {
		t.Fatal("unknown family accepted")
	}
}
