package wavelet

import (
	"math"
	"testing"

	"lpp/internal/stats"
)

var allFamilies = []Family{Haar, Daubechies4, Daubechies6}

func TestFilterOrthonormality(t *testing.T) {
	for _, f := range allFamilies {
		h := f.Scaling()
		var sum, sumSq float64
		for _, c := range h {
			sum += c
			sumSq += c * c
		}
		if math.Abs(sum-math.Sqrt2) > 1e-9 {
			t.Errorf("%v: scaling sum = %g, want √2", f, sum)
		}
		if math.Abs(sumSq-1) > 1e-9 {
			t.Errorf("%v: scaling energy = %g, want 1", f, sumSq)
		}
		g := f.Wavelet()
		var gsum, dot float64
		for k := range g {
			gsum += g[k]
			dot += g[k] * h[k]
		}
		if math.Abs(gsum) > 1e-9 {
			t.Errorf("%v: wavelet sum = %g, want 0", f, gsum)
		}
		if math.Abs(dot) > 1e-9 {
			t.Errorf("%v: <h,g> = %g, want 0", f, dot)
		}
		// For an even-length quadrature-mirror pair <h,g> is zero
		// whatever the taps, so the check that catches a wrong tap
		// is h's orthogonality to its own even shifts.
		for m := 1; m < len(h)/2; m++ {
			var r float64
			for k := 0; k+2*m < len(h); k++ {
				r += h[k] * h[k+2*m]
			}
			if math.Abs(r) > 1e-9 {
				t.Errorf("%v: Σ h[k]·h[k+%d] = %g, want 0", f, 2*m, r)
			}
		}
	}
}

func TestFamilyString(t *testing.T) {
	if Haar.String() != "Haar" || Daubechies6.String() != "Daubechies-6" ||
		Daubechies4.String() != "Daubechies-4" || Family(99).String() != "unknown" {
		t.Error("unexpected family names")
	}
}

func TestReflect(t *testing.T) {
	// n=4: pattern 0 1 2 3 2 1 0 1 2 3 ...
	cases := map[int]int{-1: 1, 0: 0, 3: 3, 4: 2, 5: 1, 6: 0, 7: 1}
	for in, want := range cases {
		if got := reflect(in, 4); got != want {
			t.Errorf("reflect(%d,4) = %d, want %d", in, got, want)
		}
	}
	if reflect(5, 1) != 0 {
		t.Error("reflect with n=1 should return 0")
	}
}

func TestLevel1DetectsStep(t *testing.T) {
	// A step function: constant 10 then constant 1000. The largest
	// coefficient magnitude must sit at the step for every family.
	x := make([]float64, 64)
	for i := range x {
		if i < 32 {
			x[i] = 10
		} else {
			x[i] = 1000
		}
	}
	for _, f := range allFamilies {
		coefs := Level1(x, f)
		best, bestMag := -1, 0.0
		for i, c := range coefs {
			if m := math.Abs(c); m > bestMag {
				best, bestMag = i, m
			}
		}
		if best < 30 || best > 34 {
			t.Errorf("%v: peak coefficient at %d, want near 32", f, best)
		}
	}
}

func TestKeepIsolatesAbruptChange(t *testing.T) {
	// Gradual ramp plus one abrupt jump: only samples near the jump
	// survive the m+3δ rule (the MolDyn example, Figure 2).
	n := 256
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i) * 0.5 // gradual change
		if i >= 128 {
			x[i] += 5000 // abrupt global shift
		}
	}
	kept := KeptIndices(x, Daubechies6)
	if len(kept) == 0 {
		t.Fatal("abrupt change not detected")
	}
	for _, i := range kept {
		if i < 124 || i > 132 {
			t.Errorf("kept index %d far from the jump at 128", i)
		}
	}
}

func TestKeepRemovesLocalPeaks(t *testing.T) {
	// A small local peak on a noisy baseline must be filtered out
	// when a much larger global change is present ("it correctly
	// removes accesses that correspond to local peaks").
	n := 256
	rng := stats.NewRNG(5)
	x := make([]float64, n)
	for i := range x {
		x[i] = 100 + rng.Float64()
	}
	x[60] += 20 // local peak
	for i := 128; i < n; i++ {
		x[i] += 50000 // global phase change
	}
	kept := Keep(x, Daubechies6)
	if kept[60] {
		t.Error("local peak at 60 should be filtered out")
	}
	anyNearJump := false
	for i := 124; i < 132; i++ {
		if kept[i] {
			anyNearJump = true
		}
	}
	if !anyNearJump {
		t.Error("global change at 128 should be kept")
	}
}

func TestKeepShortAndFlatSignals(t *testing.T) {
	if k := Keep([]float64{1, 2}, Haar); k[0] || k[1] {
		t.Error("short signal should keep nothing")
	}
	flat := make([]float64, 50)
	for i := range flat {
		flat[i] = 7
	}
	for _, k := range Keep(flat, Daubechies6) {
		if k {
			t.Error("flat signal should keep nothing")
		}
	}
	if Keep(nil, Haar) == nil {
		// fine: zero-length output
	} else if len(Keep(nil, Haar)) != 0 {
		t.Error("nil signal should produce empty keeps")
	}
}

func TestLevel1Empty(t *testing.T) {
	if Level1(nil, Haar) != nil {
		t.Error("Level1(nil) should be nil")
	}
}

func BenchmarkLevel1D6(b *testing.B) {
	x := make([]float64, 4096)
	rng := stats.NewRNG(1)
	for i := range x {
		x[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Level1(x, Daubechies6)
	}
}
