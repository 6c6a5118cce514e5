package core

import (
	"reflect"
	"runtime"
	"testing"

	"lpp/internal/reuse"
	"lpp/internal/stats"
	"lpp/internal/trace"
	"lpp/internal/workload"
)

// TestDetectParallelMatchesSequential: the pipelined, fanned-out
// detection at GOMAXPROCS 2 to 4 must produce a Detection deeply equal
// to the one-worker run at GOMAXPROCS 1, across every benchmark in the
// suite — including the irregular ones.
func TestDetectParallelMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, spec := range workload.All() {
		t.Run(spec.Name, func(t *testing.T) {
			train := quickTrain(spec)
			runtime.GOMAXPROCS(1)
			want, err := Detect(spec.Make(train), DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{2, 3, 4} {
				runtime.GOMAXPROCS(procs)
				got, err := Detect(spec.Make(train), DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("GOMAXPROCS=%d: detection diverges from GOMAXPROCS=1", procs)
				}
			}
		})
	}
}

// quickTrain shrinks a spec's training run to test scale, mirroring
// experiments.Options.params so the parity test covers the same traces
// the report generates.
func quickTrain(spec workload.Spec) workload.Params {
	p := spec.Train
	capN := func(n int) {
		if p.N > n {
			p.N = n
		}
	}
	capSteps := func(s int) {
		if p.Steps > s {
			p.Steps = s
		}
	}
	switch spec.Name {
	case "tomcatv", "swim":
		capN(48)
		capSteps(6)
	case "applu":
		capN(14)
		capSteps(5)
	case "fft":
		capN(1 << 9)
		capSteps(6)
	case "compress", "vortex":
		capN(1 << 13)
		capSteps(5)
	case "gcc":
		capN(30)
		capSteps(20)
	case "mesh":
		capN(1 << 11)
		capSteps(6)
	case "moldyn":
		capN(200)
		capSteps(6)
	}
	return p
}

// TestSplitDistancesMatchDirectAnalysis: the split reuse-distance pass
// Detect runs must reproduce one analyzer's distance stream at any
// worker count, including a ragged last segment that an even split
// leaves shorter or longer than the rest.
func TestSplitDistancesMatchDirectAnalysis(t *testing.T) {
	rng := stats.NewRNG(17)
	n := 3<<16 + 1234 // long enough to split four ways, with a ragged tail
	addrs := make([]trace.Addr, n)
	for i := range addrs {
		addrs[i] = trace.Addr(rng.Intn(4096) * 8)
	}

	an := reuse.NewAnalyzer()
	want := make([]int64, n)
	for i, a := range addrs {
		want[i] = an.Access(a)
	}

	for _, workers := range []int{1, 2, 3, 4} {
		got := reuse.SplitDistances(addrs, workers, func(int, []int64) {})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: split distance stream diverges from direct analysis", workers)
		}
	}
}
