package wavelet

import (
	"lpp/internal/stats"
)

// Level1 computes the undecimated level-1 detail coefficient at every
// sample position using symmetric boundary extension, so each access in
// a sub-trace gets its own coefficient — the form the paper's filtering
// step needs ("computes the level-1 coefficient for each access").
func Level1(x []float64, f Family) []float64 {
	if len(x) == 0 {
		return nil
	}
	return convolveInto(make([]float64, len(x)), x, f.Wavelet())
}

// convolveInto applies the filter taps to x with symmetric extension,
// centering the filter on each sample, and writes the result into out
// (len(out) == len(x)).
func convolveInto(out, x, filt []float64) []float64 {
	n := len(x)
	off := len(filt) / 2
	for i := 0; i < n; i++ {
		var v float64
		for k := range filt {
			v += filt[k] * x[reflect(i+k-off, n)]
		}
		out[i] = v
	}
	return out
}

// reflect maps an out-of-range index into [0, n) by symmetric
// (mirror) extension: ... x2 x1 | x0 x1 x2 ... x_{n-1} | x_{n-2} ...
func reflect(i, n int) int {
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

// Keep reports which samples of x survive the paper's filter rule: a
// sample is kept only when the magnitude of its level-1 wavelet
// coefficient ω satisfies ω > m + 3δ, where m and δ are the mean and
// standard deviation of the coefficient magnitudes. Gradual changes and
// local peaks produce small coefficients and are removed; abrupt global
// changes survive. Signals shorter than 3 samples produce no keeps (no
// statistics to compare against).
func Keep(x []float64, f Family) []bool {
	return NewKeeper(f).Keep(x)
}

// Keeper is Keep with reusable state: it derives the family's wavelet
// taps once and keeps its coefficient and result buffers, so filtering
// many short windows allocates nothing once the buffers have grown to
// the longest window.
type Keeper struct {
	g     []float64
	coefs []float64
	kept  []bool
}

// NewKeeper returns a Keeper for the family.
func NewKeeper(f Family) *Keeper { return &Keeper{g: f.Wavelet()} }

// Keep returns Keep(x, f). The result is owned by the Keeper and valid
// until the next call.
func (k *Keeper) Keep(x []float64) []bool {
	n := len(x)
	k.kept = append(k.kept[:0], make([]bool, n)...)
	if n < 3 {
		return k.kept
	}
	k.coefs = append(k.coefs[:0], make([]float64, n)...)
	markAbrupt(k.kept, convolveInto(k.coefs, x, k.g))
	return k.kept
}

// markAbrupt applies the m + 3δ rule to the coefficients, setting
// kept[i] for each one whose magnitude passes. It overwrites coefs
// with their magnitudes.
func markAbrupt(kept []bool, coefs []float64) {
	for i, c := range coefs {
		if c < 0 {
			coefs[i] = -c
		}
	}
	m := stats.Mean(coefs)
	d := stats.StdDev(coefs)
	threshold := m + 3*d
	if d == 0 {
		// A perfectly uniform coefficient field has no abrupt
		// change at all.
		return
	}
	for i, mag := range coefs {
		if mag > threshold {
			kept[i] = true
		}
	}
}

// KeptIndices returns the indices for which Keep is true.
func KeptIndices(x []float64, f Family) []int {
	var out []int
	for i, k := range Keep(x, f) {
		if k {
			out = append(out, i)
		}
	}
	return out
}
