// Package wavelet implements the wavelet filter of Section 2.2.2 of the
// paper, which exposes abrupt changes in per-datum reuse-distance
// sub-traces. Three orthonormal families are provided — Haar,
// Daubechies-4, and Daubechies-6 (the family the paper uses) — with an
// undecimated level-1 transform that produces one detail coefficient
// per sample, and the m+3δ filter rule that keeps only statistically
// significant coefficients. The paper tried the next four levels and
// found level 1 adequate, so only level 1 is implemented.
package wavelet

import "math"

// Family is an orthonormal wavelet filter family.
type Family int

// Supported families.
const (
	Haar Family = iota
	Daubechies4
	Daubechies6
)

// String returns the family name.
func (f Family) String() string {
	switch f {
	case Haar:
		return "Haar"
	case Daubechies4:
		return "Daubechies-4"
	case Daubechies6:
		return "Daubechies-6"
	}
	return "unknown"
}

var (
	sqrt2     = math.Sqrt2
	haarH     = []float64{1 / sqrt2, 1 / sqrt2}
	d4H       = []float64{(1 + math.Sqrt(3)) / (4 * sqrt2), (3 + math.Sqrt(3)) / (4 * sqrt2), (3 - math.Sqrt(3)) / (4 * sqrt2), (1 - math.Sqrt(3)) / (4 * sqrt2)}
	d6H       = []float64{0.3326705529500825, 0.8068915093110924, 0.4598775021184914, -0.13501102001025458, -0.08544127388202666, 0.03522629188570953}
	familyTap = map[Family][]float64{Haar: haarH, Daubechies4: d4H, Daubechies6: d6H}
)

// Scaling returns a copy of the family's scaling (low-pass) filter h.
func (f Family) Scaling() []float64 {
	h, ok := familyTap[f]
	if !ok {
		panic("wavelet: unknown family")
	}
	out := make([]float64, len(h))
	copy(out, h)
	return out
}

// Wavelet returns the family's wavelet (high-pass) filter g, derived
// from the scaling filter by the quadrature-mirror relation
// g[k] = (-1)^k h[L-1-k].
func (f Family) Wavelet() []float64 {
	h := f.Scaling()
	L := len(h)
	g := make([]float64, L)
	for k := 0; k < L; k++ {
		g[k] = h[L-1-k]
		if k%2 == 1 {
			g[k] = -g[k]
		}
	}
	return g
}
