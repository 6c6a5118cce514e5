package online

import (
	"testing"

	"lpp/internal/phase"
	"lpp/internal/wavelet"
)

// TestConfigFingerprintPinned fixes the config fingerprint that every
// LPPSNAP and LPPCKPT1 header carries. The fingerprints were recorded
// when the detection constants were still Config fields at these
// defaults; the constant table names the one that drifted.
func TestConfigFingerprintPinned(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"SubTraceWindow", SubTraceWindow, 48},
		{"FilterLag", FilterLag, 8},
		{"MinSubTrace", MinSubTrace, 4},
		{"BoundaryWindow", BoundaryWindow, 256},
		{"BoundaryMargin", BoundaryMargin, 64},
		{"Alpha", Alpha, 0.5},
		{"MaxSpan", MaxSpan, 4000},
		{"Wavelet", Wavelet, wavelet.Daubechies6},
		{"TargetRate", TargetRate, 0.05},
		{"Similarity", Similarity, 0.5},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}

	offDefault := Config{
		Epsilon:        0.1,
		MaxLive:        1 << 12,
		MaxDataSamples: 64,
		MinBoundaryGap: 5000,
		KeepIrregular:  true,
		CheckEvery:     3000,
		MaxGrammar:     512,
		PhaseTail:      64,
		MaxPhases:      16,
		MaxSignature:   256,
		MaxPending:     128,
		MaxStride:      4,
		OnEvent:        func(phase.Event) {},
	}
	for _, c := range []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"zero", Config{}, 0xa6086ac691d34174},
		{"default", DefaultConfig(), 0xa6086ac691d34174},
		{"off-default", offDefault, 0x796bfc185de5045d},
	} {
		if got := c.cfg.withDefaults().fingerprint(); got != c.want {
			t.Errorf("%s config: fingerprint %#x, want %#x", c.name, got, c.want)
		}
	}
}
