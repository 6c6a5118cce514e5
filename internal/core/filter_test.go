package core

import (
	"slices"
	"testing"

	"lpp/internal/sampling"
	"lpp/internal/trace"
	"lpp/internal/wavelet"
)

// sortedCut runs the bimodal rule on a sorted copy of vals, as Filter
// does through Sorted.
func sortedCut(vals []float64) (float64, bool) {
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	return bimodalCut(sorted)
}

func TestBimodalSplitSeparatesModes(t *testing.T) {
	vals := []float64{300, 280, 9000, 310, 15000, 290, 8700}
	cut, ok := sortedCut(vals)
	if !ok {
		t.Fatal("clear bimodal signal not split")
	}
	if cut > 9000 || cut <= 310 {
		t.Errorf("cut = %g, want in (310, 9000]", cut)
	}
}

func TestBimodalSplitRejectsUnimodal(t *testing.T) {
	if _, ok := sortedCut([]float64{100, 110, 105, 98, 102, 104}); ok {
		t.Error("unimodal signal should not split")
	}
	// A smooth geometric ramp has gaps but no dominant one.
	ramp := make([]float64, 20)
	v := 100.0
	for i := range ramp {
		ramp[i] = v
		v *= 1.3
	}
	if _, ok := sortedCut(ramp); ok {
		t.Error("smooth ramp should not split")
	}
}

func TestBimodalSplitEdgeCases(t *testing.T) {
	if _, ok := sortedCut([]float64{1, 1000}); ok {
		t.Error("too few values should not split")
	}
	if _, ok := sortedCut([]float64{0, 1, 2, 3, 4}); ok {
		t.Error("non-positive values should not split")
	}
}

func TestFilterSubTraceTomcatvShape(t *testing.T) {
	// Oscillating short/long distances: keep exactly the long mode.
	var sig []float64
	for i := 0; i < 8; i++ {
		sig = append(sig, 8642, 276, 14995, 8467, 364)
	}
	keep := FilterSubTrace(sig, wavelet.Daubechies6, false)
	for i, k := range keep {
		long := sig[i] > 1000
		if long && !k {
			t.Errorf("long reuse at %d (%g) dropped", i, sig[i])
		}
		if !long && k {
			t.Errorf("short reuse at %d (%g) kept", i, sig[i])
		}
	}
}

func TestFilterSubTraceMolDynShape(t *testing.T) {
	// Gradual drift with one abrupt jump (Figure 2): the wavelet
	// rule keeps only points near the jump.
	var sig []float64
	for i := 0; i < 128; i++ {
		v := 1000 + float64(i)*3
		if i >= 64 {
			v += 100000
		}
		sig = append(sig, v)
	}
	keep := FilterSubTrace(sig, wavelet.Daubechies6, false)
	kept := 0
	for i, k := range keep {
		if !k {
			continue
		}
		kept++
		if i < 60 || i > 68 {
			t.Errorf("kept index %d far from the jump at 64", i)
		}
	}
	if kept == 0 {
		t.Error("abrupt jump not kept")
	}
}

func TestFilterSamplesOrdersByTime(t *testing.T) {
	// Build two data samples with interleaved bimodal sub-traces.
	var r sampling.Result
	r.DataAddrs = []trace.Addr{100, 200}
	for i := 0; i < 12; i++ {
		d := int64(300)
		if i%3 == 0 {
			d = 20000
		}
		r.Samples = append(r.Samples,
			sampling.Sample{Time: int64(i * 10), Data: i % 2, Dist: d})
	}
	got := FilterSamples(r, wavelet.Daubechies6, 4)
	prev := int64(-1)
	for _, si := range got {
		if r.Samples[si].Time < prev {
			t.Fatal("filtered samples out of time order")
		}
		prev = r.Samples[si].Time
	}
}
