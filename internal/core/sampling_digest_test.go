package core

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"lpp/internal/sampling"
	"lpp/internal/trace"
	"lpp/internal/workload"
)

// samplingTrainDigests are fnv64a digests of sampling.RunTrace's
// Samples, DataAddrs and Adjustments over each Train trace, configured
// as Detect configures it (normalizeConfig's ExpectedLength and
// CheckEvery). They were recorded before the offline and online
// samplers shared one selection core, so they pin the offline side of
// that core bit-identical to the sampler it replaced at the scale the
// offline benchmark runs; the quick-mode goldens never reach it.
var samplingTrainDigests = []struct {
	name   string
	digest uint64
}{
	{"tomcatv", 0x66fce8435bfd7e3f},
	{"swim", 0xbacc412231b8992e},
	{"fft", 0xe90fd847631c2d84},
	{"mesh", 0xeacdf4218e8620d9},
}

// TestSamplingTrainDigest samples each Train trace and hashes every
// sample (time, datum, distance), then every data-sample address, then
// the adjustment count, as little-endian 64-bit words.
func TestSamplingTrainDigest(t *testing.T) {
	programs := samplingTrainDigests
	if raceEnabled {
		programs = programs[:1] // each trace takes seconds under -race
	}
	for _, p := range programs {
		spec, err := workload.ByName(p.name)
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder(1<<21, 1<<16)
		spec.Make(spec.Train).Run(rec)
		_, scfg, err := normalizeConfig(&rec.T, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res := sampling.RunTrace(rec.T.Accesses, scfg)

		h := fnv.New64a()
		var buf [8]byte
		word := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		for _, s := range res.Samples {
			word(uint64(s.Time))
			word(uint64(s.Data))
			word(uint64(s.Dist))
		}
		for _, a := range res.DataAddrs {
			word(uint64(a))
		}
		word(uint64(res.Adjustments))
		if got := h.Sum64(); got != p.digest {
			t.Errorf("%s: %d samples over %d data digest to %#x, want %#x",
				p.name, len(res.Samples), len(res.DataAddrs), got, p.digest)
		}
	}
}
