package online

import (
	"testing"

	"lpp/internal/trace"
	"lpp/internal/workload"
)

// TestBoundedMemoryOverLongStream is the O(1)-memory acceptance test:
// the detector ingests more than 10x a training trace's length under a
// fixed set of caps, and every memory gauge stays within its bound the
// whole way — the stream length never appears in any bound.
func TestBoundedMemoryOverLongStream(t *testing.T) {
	spec, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(1<<18, 1<<14)
	spec.Make(workload.Params{N: 8192, Steps: 5, Seed: 1}).Run(rec)
	trainLen := int64(len(rec.T.Accesses))

	cfg := DefaultConfig()
	cfg.MaxLive = 4096
	cfg.MaxDataSamples = 128
	cfg.MaxGrammar = 512
	cfg.PhaseTail = 64
	d := NewDetector(cfg)

	const rounds = 10
	var boundariesAt [rounds]int64
	for r := 0; r < rounds; r++ {
		rec.T.Replay(d)
		st := d.Stats()
		if st.TrackedAddrs > cfg.MaxLive {
			t.Fatalf("round %d: tracked addrs %d > cap %d", r, st.TrackedAddrs, cfg.MaxLive)
		}
		if st.AnalyzerBuckets > 8192 {
			t.Fatalf("round %d: analyzer buckets %d", r, st.AnalyzerBuckets)
		}
		if st.DataSamples > cfg.MaxDataSamples {
			t.Fatalf("round %d: data samples %d > cap %d", r, st.DataSamples, cfg.MaxDataSamples)
		}
		if st.WindowLen > BoundaryWindow {
			t.Fatalf("round %d: boundary window %d > cap %d", r, st.WindowLen, BoundaryWindow)
		}
		if st.GrammarSize > cfg.MaxGrammar {
			t.Fatalf("round %d: grammar size %d > cap %d", r, st.GrammarSize, cfg.MaxGrammar)
		}
		if st.Phases > cfg.MaxPhases {
			t.Fatalf("round %d: phases %d > cap %d", r, st.Phases, cfg.MaxPhases)
		}
		boundariesAt[r] = st.Boundaries
	}
	d.Flush()

	st := d.Stats()
	if st.Accesses < 10*trainLen {
		t.Fatalf("streamed %d accesses, want >= 10x training length %d", st.Accesses, trainLen)
	}
	// Detection must keep working deep into the stream, not stall
	// after the caps bite: the last round must still add boundaries.
	if boundariesAt[rounds-1] <= boundariesAt[rounds-2] {
		t.Errorf("no boundaries detected in final round: %v", boundariesAt)
	}
}
