package sampling

import (
	"reflect"
	"testing"

	"lpp/internal/reuse"
	"lpp/internal/stats"
	"lpp/internal/trace"
)

// phasedTrace builds a synthetic two-phase access stream: phase A
// cycles over one array, phase B over another, alternating.
func phasedTrace(phaseLen, phases int) []trace.Addr {
	var out []trace.Addr
	const elems = 2048
	for p := 0; p < phases; p++ {
		base := trace.Addr(1 << 20)
		if p%2 == 1 {
			base = 1 << 24
		}
		for i := 0; i < phaseLen; i++ {
			out = append(out, base+trace.Addr(i%elems)*8)
		}
	}
	return out
}

func TestSamplerCollectsLongReuses(t *testing.T) {
	tr := phasedTrace(50000, 8)
	res := RunTrace(tr, Config{TargetSamples: 2000, Qualification: 256, Temporal: 256, Spatial: 64, CheckEvery: 10000})
	if len(res.Samples) == 0 {
		t.Fatal("no samples collected")
	}
	if len(res.DataAddrs) == 0 {
		t.Fatal("no data samples selected")
	}
	if res.Accesses != int64(len(tr)) {
		t.Errorf("accesses = %d, want %d", res.Accesses, len(tr))
	}
	// Every sample's distance must exceed the (initial) temporal
	// threshold — thresholds only grow in this setup.
	for _, s := range res.Samples {
		if s.Dist <= 256 {
			t.Fatalf("sample with distance %d below temporal threshold", s.Dist)
		}
	}
	// Samples must be in time order.
	for i := 1; i < len(res.Samples); i++ {
		if res.Samples[i].Time < res.Samples[i-1].Time {
			t.Fatal("samples out of time order")
		}
	}
}

func TestSamplerFeedbackLimitsSamples(t *testing.T) {
	// A trace with huge reuse distances everywhere would flood the
	// sampler; feedback must keep the count near the target.
	rng := stats.NewRNG(3)
	var tr []trace.Addr
	for i := 0; i < 400000; i++ {
		tr = append(tr, trace.Addr(rng.Intn(100000))*64)
	}
	target := 1000
	res := RunTrace(tr, Config{TargetSamples: target, Qualification: 64, Temporal: 64, Spatial: 1, CheckEvery: 20000})
	if len(res.Samples) > 4*target {
		t.Errorf("feedback failed: %d samples for target %d", len(res.Samples), target)
	}
	if res.Adjustments == 0 {
		t.Error("expected threshold adjustments")
	}
}

func TestSamplerSpatialThreshold(t *testing.T) {
	// Two data elements 8 bytes apart with long reuses: with a large
	// spatial threshold only one can become a data sample.
	var tr []trace.Addr
	filler := func(round int) {
		for i := 0; i < 2000; i++ {
			tr = append(tr, trace.Addr(1<<30)+trace.Addr(round*2000+i)*64)
		}
	}
	for round := 0; round < 20; round++ {
		tr = append(tr, 4096, 4104)
		filler(round)
	}
	res := RunTrace(tr, Config{TargetSamples: 10000, Qualification: 100, Temporal: 100, Spatial: 4096, CheckEvery: 1 << 40})
	got := 0
	for _, a := range res.DataAddrs {
		if a == 4096 || a == 4104 {
			got++
		}
	}
	if got != 1 {
		t.Errorf("spatial threshold admitted %d of the adjacent pair, want 1", got)
	}
}

func TestSubTraces(t *testing.T) {
	r := Result{
		Samples: []Sample{
			{Time: 1, Data: 0}, {Time: 5, Data: 1}, {Time: 9, Data: 0},
		},
		DataAddrs: []trace.Addr{100, 200},
	}
	subs := r.SubTraces()
	if len(subs) != 2 || len(subs[0]) != 2 || len(subs[1]) != 1 {
		t.Fatalf("SubTraces = %v", subs)
	}
	if subs[0][0] != 0 || subs[0][1] != 2 {
		t.Errorf("sub-trace of data 0 = %v, want [0 2]", subs[0])
	}
}

func TestSamplerDefaults(t *testing.T) {
	s := newSampler(Config{}, 0)
	if s.cfg.TargetSamples != DefaultConfig().TargetSamples {
		t.Error("zero config should take defaults")
	}
}

func TestSamplerColdAccessesNeverSampled(t *testing.T) {
	var tr []trace.Addr
	for i := 0; i < 10000; i++ {
		tr = append(tr, trace.Addr(i)*4096) // all cold
	}
	res := RunTrace(tr, Config{TargetSamples: 100, CheckEvery: 1000})
	if len(res.Samples) != 0 {
		t.Errorf("cold-only trace produced %d samples", len(res.Samples))
	}
}

// runTraceDists samples a recorded access stream whose reuse distances
// were measured elsewhere: dists[i] must be the exact reuse distance of
// accesses[i], and the result is then bit-identical to RunTrace over
// the same stream. It lets the tests feed the sampler distances
// directly.
func runTraceDists(accesses []trace.Addr, dists []int64, cfg Config) Result {
	s := newSampler(cfg, len(accesses))
	for i, a := range accesses {
		s.access(a, dists[i])
	}
	return s.result()
}

// TestRunTraceDistsMatchesRunTrace: feeding precomputed reuse
// distances, or trailing a split distance pass, must reproduce RunTrace
// bit for bit — core.Detect's parallel mode depends on it.
func TestRunTraceDistsMatchesRunTrace(t *testing.T) {
	tr := phasedTrace(30000, 6)
	cfg := Config{TargetSamples: 1500, CheckEvery: 5000}

	want := RunTrace(tr, cfg)

	an := reuse.NewAnalyzer()
	dists := make([]int64, len(tr))
	for i, a := range tr {
		dists[i] = an.Access(a)
	}
	got := runTraceDists(tr, dists, cfg)

	if !reflect.DeepEqual(got, want) {
		t.Errorf("runTraceDists diverges from RunTrace:\ngot  %+v samples=%d\nwant %+v samples=%d",
			got, len(got.Samples), want, len(want.Samples))
	}
	for _, workers := range []int{2, 3} {
		if got := RunTraceSplit(tr, workers, cfg); !reflect.DeepEqual(got, want) {
			t.Errorf("RunTraceSplit at %d workers diverges from RunTrace: %d samples, want %d",
				workers, len(got.Samples), len(want.Samples))
		}
	}
}
