package reuse

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// approxTrainDigests are fnv64a digests of every AccessEvict distance
// and the final State() of an eps=0.05 analyzer at the detector's
// eviction cap, over each Train trace. They were recorded before the
// tail-bucket locator existed, so they pin it bit-identical to the
// Fenwick-tree-only analyzer on the streams the server runs.
var approxTrainDigests = []struct {
	name   string
	digest uint64
}{
	{"tomcatv", 0x60c38bb5bc4e9aa1},
	{"swim", 0x1793cee54f85e1dd},
	{"applu", 0x8cfdd9d96db2330b},
}

// TestApproxTrainDistanceDigest replays each Train trace through
// AccessEvict at detectorMaxLive and hashes every distance, then the
// State() fields in declaration order, as little-endian 64-bit words.
func TestApproxTrainDistanceDigest(t *testing.T) {
	programs := approxTrainDigests
	if raceEnabled {
		programs = programs[:1] // each trace takes seconds under -race
	}
	for _, p := range programs {
		addrs := trainAccesses(t, p.name)
		h := fnv.New64a()
		var buf [8]byte
		word := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		a := NewApproxAnalyzer(0.05)
		for _, addr := range addrs {
			word(uint64(a.AccessEvict(addr, detectorMaxLive)))
		}
		st := a.State()
		word(math.Float64bits(st.Eps))
		word(uint64(st.Now))
		word(uint64(st.Live))
		for i, addr := range st.Addrs {
			word(uint64(addr))
			word(uint64(st.Times[i]))
		}
		for i, bt := range st.BucketTimes {
			word(uint64(bt))
			word(uint64(st.BucketCounts[i]))
		}
		if got := h.Sum64(); got != p.digest {
			t.Errorf("%s: %d accesses digest to %#x, want %#x", p.name, len(addrs), got, p.digest)
		}
	}
}
