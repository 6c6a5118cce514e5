package online

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"lpp/internal/core"
	"lpp/internal/phase"
	"lpp/internal/wavelet"
	"lpp/internal/workload"
)

// refFilterSubTrace is a frozen copy of the sub-trace filter as it was
// before core.SubTraceFilter reused its buffers and sorted each window
// once: every call derives the wavelet taps, transforms a fresh copy
// and sorts its own copy for the bimodal rule. The reusable filter must
// agree with it bit for bit.
func refFilterSubTrace(dists []float64, fam wavelet.Family, keepIrregular bool) []bool {
	if len(dists) >= 4 && refCoefVar(dists) < 0.25 {
		keep := make([]bool, len(dists))
		for i := range keep {
			keep[i] = true
		}
		return keep
	}
	if keepIrregular && len(dists) >= 4 {
		if ac := refLag1Autocorr(dists); ac < 0.3 && ac > -0.3 {
			keep := make([]bool, len(dists))
			for i := range keep {
				keep[i] = true
			}
			return keep
		}
	}
	keep := refWaveletKeep(dists, fam)
	if cut, ok := refBimodalSplit(dists); ok && refAlternations(dists, cut) >= 4 {
		for i, d := range dists {
			if d >= cut {
				keep[i] = true
			}
		}
	}
	return keep
}

// refWaveletKeep is the frozen level-1 m + 3δ rule.
func refWaveletKeep(x []float64, f wavelet.Family) []bool {
	kept := make([]bool, len(x))
	if len(x) < 3 {
		return kept
	}
	g := f.Wavelet()
	n := len(x)
	approx := append([]float64(nil), x...)
	off := len(g) / 2
	coefs := make([]float64, n)
	for i := 0; i < n; i++ {
		var v float64
		for k := range g {
			v += g[k] * approx[refReflect(i+k-off, n)]
		}
		coefs[i] = v
	}
	mags := make([]float64, len(coefs))
	for i, c := range coefs {
		if c < 0 {
			c = -c
		}
		mags[i] = c
	}
	m := refMean(mags)
	var sq float64
	for _, v := range mags {
		d := v - m
		sq += d * d
	}
	d := math.Sqrt(sq / float64(len(mags)))
	threshold := m + 3*d
	if d == 0 {
		return kept
	}
	for i, mag := range mags {
		if mag > threshold {
			kept[i] = true
		}
	}
	return kept
}

func refReflect(i, n int) int {
	if n == 1 {
		return 0
	}
	period := 2 * (n - 1)
	i %= period
	if i < 0 {
		i += period
	}
	if i >= n {
		i = period - i
	}
	return i
}

func refAlternations(vals []float64, cut float64) int {
	n := 0
	for i := 1; i < len(vals); i++ {
		if (vals[i] >= cut) != (vals[i-1] >= cut) {
			n++
		}
	}
	return n
}

func refBimodalSplit(vals []float64) (float64, bool) {
	if len(vals) < 4 {
		return 0, false
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	if sorted[0] <= 0 {
		return 0, false
	}
	bestIdx, bestRatio := -1, 1.0
	for i := 0; i+1 < len(sorted); i++ {
		r := sorted[i+1] / sorted[i]
		if r > bestRatio {
			bestRatio, bestIdx = r, i
		}
	}
	if bestIdx < 0 || bestRatio < 4 {
		return 0, false
	}
	lower, upper := sorted[:bestIdx+1], sorted[bestIdx+1:]
	lm, um := refMean(lower), refMean(upper)
	if math.IsNaN(lm) || lm <= 0 || um < 8*lm {
		return 0, false
	}
	return upper[0], true
}

func refMean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func refLag1Autocorr(xs []float64) float64 {
	m := refMean(xs)
	var num, den float64
	for i := range xs {
		d := xs[i] - m
		den += d * d
		if i > 0 {
			num += (xs[i-1] - m) * d
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

func refCoefVar(xs []float64) float64 {
	m := refMean(xs)
	if m == 0 {
		return 0
	}
	var sq float64
	for _, x := range xs {
		d := x - m
		sq += d * d
	}
	return math.Sqrt(sq/float64(len(xs))) / m
}

// refSpikeOverFlat is the frozen spikeOverFlat, sorting its own copy.
func refSpikeOverFlat(dists []float64, i int) bool {
	if len(dists) < 4 {
		return false
	}
	sorted := append([]float64(nil), dists...)
	sort.Float64s(sorted)
	med := sorted[len(sorted)/2]
	if med <= 0 {
		return false
	}
	cut := 8 * med
	if dists[i] >= cut {
		return true
	}
	if dists[0] < cut {
		return false
	}
	n, sum := 0, 0.0
	for _, v := range dists {
		if v < cut {
			n++
			sum += v
		}
	}
	if n != len(dists)-1 || n < 4 {
		return false
	}
	mean := sum / float64(n)
	if mean <= 0 {
		return false
	}
	varsum := 0.0
	for _, v := range dists {
		if v < cut {
			dv := v - mean
			varsum += dv * dv
		}
	}
	return math.Sqrt(varsum/float64(n))/mean < 0.25
}

// checkFilterWindow holds one reused filter, the FilterSubTrace wrapper
// and spikeOverFlat to the frozen reference on one window.
func checkFilterWindow(t *testing.T, f *core.SubTraceFilter, keepIrregular bool, name string, dists []float64) {
	t.Helper()
	want := refFilterSubTrace(dists, wavelet.Daubechies6, keepIrregular)
	got := f.Filter(dists)
	wrapped := core.FilterSubTrace(dists, wavelet.Daubechies6, keepIrregular)
	if len(got) != len(want) || len(wrapped) != len(want) {
		t.Fatalf("%s (n=%d, irregular %v): mask lengths %d/%d, want %d", name, len(dists), keepIrregular, len(got), len(wrapped), len(want))
	}
	for i := range want {
		if got[i] != want[i] || wrapped[i] != want[i] {
			t.Fatalf("%s (n=%d, irregular %v): sample %d kept %v (wrapper %v), reference %v\nwindow %v",
				name, len(dists), keepIrregular, i, got[i], wrapped[i], want[i], dists)
		}
		if s, r := spikeOverFlat(f, dists, i), refSpikeOverFlat(dists, i); s != r {
			t.Fatalf("%s (n=%d): spikeOverFlat(%d) = %v, reference %v\nwindow %v", name, len(dists), i, s, r, dists)
		}
	}
}

// syntheticWindows returns windows of every length 0..48 in the shapes
// the filter's rules branch on.
func syntheticWindows() map[string][][]float64 {
	rng := rand.New(rand.NewSource(7))
	pick := func(cond bool, a, b float64) float64 {
		if cond {
			return a
		}
		return b
	}
	shapes := map[string]func(n, i int) float64{
		"zeros":      func(n, i int) float64 { return 0 },
		"ties":       func(n, i int) float64 { return []float64{600, 600, 600, 9000}[i%4] },
		"flat":       func(n, i int) float64 { return 5000 + float64(i%3) },
		"bimodal":    func(n, i int) float64 { return []float64{700, 40000}[i%2] },
		"spike":      func(n, i int) float64 { return pick(i == 0, 90000, 800+float64(i%2)) },
		"late spike": func(n, i int) float64 { return pick(i == n/2, 90000, 800) },
		"step":       func(n, i int) float64 { return pick(i >= n/2, 30000, 900) },
		"random":     func(n, i int) float64 { return float64(513 + rng.Intn(1<<rng.Intn(20))) },
		"ramp":       func(n, i int) float64 { return 600 * math.Pow(1.2, float64(i)) },
	}
	out := make(map[string][][]float64)
	for name, at := range shapes {
		for n := 0; n <= 48; n++ {
			w := make([]float64, n)
			for i := range w {
				w[i] = at(n, i)
			}
			out[name] = append(out[name], w)
		}
	}
	return out
}

// TestSubTraceFilterMatchesFrozenReference checks the reusable filter,
// with and without the irregular-signal rule, on synthetic windows of
// every length up to the default SubTraceWindow, one filter reused
// across all of them so stale buffer contents would show.
func TestSubTraceFilterMatchesFrozenReference(t *testing.T) {
	for _, irregular := range []bool{false, true} {
		f := core.NewSubTraceFilter(wavelet.Daubechies6, irregular)
		for name, windows := range syntheticWindows() {
			for _, w := range windows {
				checkFilterWindow(t, f, irregular, name, w)
			}
		}
	}
}

// TestSubTraceFilterMatchesFrozenReferenceOnTrainWindows checks the
// filter on the sliding windows the detector actually holds: every
// tracked datum's window after every 32nd 1024-event chunk of four
// Train traces (fft only under -race).
func TestSubTraceFilterMatchesFrozenReferenceOnTrainWindows(t *testing.T) {
	programs := []string{"fft", "tomcatv", "mesh", "compress"}
	if raceEnabled {
		programs = programs[:1] // the race runtime makes each replay ~10x slower
	}
	for _, name := range programs {
		spec, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		params := spec.Train
		params.Steps = min(params.Steps, 3)
		var c eventCollector
		spec.Make(params).Run(&c)
		for _, irregular := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.KeepIrregular = irregular
			cfg.OnEvent = func(phase.Event) {}
			d := NewDetector(cfg)
			f := core.NewSubTraceFilter(Wavelet, irregular)
			windows := 0
			for off, k := 0, 0; off < len(c.events); off, k = off+1024, k+1 {
				d.AccessBatch(c.events[off:min(off+1024, len(c.events))])
				if k%32 != 0 {
					continue
				}
				for _, dt := range d.data {
					if dt != nil {
						checkFilterWindow(t, f, irregular, name, dt.dists)
						windows++
					}
				}
			}
			if windows == 0 {
				t.Fatalf("%s: no datum windows to check", name)
			}
		}
	}
}

// TestSubTraceFilterZeroAllocs pins a warmed filter at zero allocations
// on a full 48-sample window that takes the wavelet and bimodal path
// and then asks spikeOverFlat about every sample, as decide does.
func TestSubTraceFilterZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-runtime allocations")
	}
	w := make([]float64, 48)
	for i := range w {
		w[i] = []float64{700, 40000, 650, 720}[i%4]
	}
	f := core.NewSubTraceFilter(wavelet.Daubechies6, false)
	f.Filter(w)
	f.Sorted()
	kept := 0
	avg := testing.AllocsPerRun(100, func() {
		kept = 0
		for i, k := range f.Filter(w) {
			if k || spikeOverFlat(f, w, i) {
				kept++
			}
		}
	})
	if avg != 0 {
		t.Errorf("warmed filter: %.2f allocs per 48-sample window, want 0", avg)
	}
	if kept == 0 {
		t.Error("window kept nothing: the bimodal path went unexercised")
	}
}
