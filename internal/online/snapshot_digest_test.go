package online

import (
	"hash/fnv"
	"testing"

	"lpp/internal/phase"
	"lpp/internal/trace"
	"lpp/internal/workload"
)

// snapshotDigestPrograms are the boundary-dense programs of the routed
// stream benchmark, at its step counts, with the digest of their
// periodic snapshots. The digests were recorded before the hierarchy
// memo, the reusable sub-trace filter and the radix-ordered analyzer
// state existed: they pin that none of those derived-state caches
// leaks into the LPPCKPT1 bytes.
var snapshotDigestPrograms = []struct {
	name   string
	steps  int
	digest uint64
}{
	{"fft", 3, 0x3d6f89a23dc8f2dc},
	{"mesh", 3, 0x13a8b93121cc4e1d},
	{"compress", 2, 0xa09f9916b1ffe899},
	{"vortex", 4, 0x71abfe28c505a1ec},
}

// TestSnapshotBytesDigest feeds each program's Train trace as 1024-event
// v2 chunks and hashes (fnv64a) every 64th chunk's Snapshot, then the
// Snapshot after the end-of-stream Flush. A change to any snapshot
// byte — analyzer table order, sampler state, grammar or signatures —
// moves the digest.
func TestSnapshotBytesDigest(t *testing.T) {
	const (
		chunkLen      = 1024
		snapshotEvery = 64
	)
	for _, p := range snapshotDigestPrograms {
		t.Run(p.name, func(t *testing.T) {
			spec, err := workload.ByName(p.name)
			if err != nil {
				t.Fatal(err)
			}
			params := spec.Train
			params.Steps = p.steps
			var c eventCollector
			spec.Make(params).Run(&c)

			cfg := DefaultConfig()
			cfg.OnEvent = func(phase.Event) {}
			d := NewDetector(cfg)
			h := fnv.New64a()
			var (
				buf  []byte
				cols trace.Columns
			)
			snaps := 0
			for off, k := 0, 1; off < len(c.events); off, k = off+chunkLen, k+1 {
				end := min(off+chunkLen, len(c.events))
				if buf, err = trace.AppendChunkV2(buf[:0], c.events[off:end]); err != nil {
					t.Fatal(err)
				}
				if err := trace.DecodeChunkV2(buf, &cols, 0); err != nil {
					t.Fatal(err)
				}
				d.AccessColumns(&cols)
				if k%snapshotEvery == 0 {
					h.Write(d.Snapshot())
					snaps++
				}
			}
			d.Flush()
			h.Write(d.Snapshot())
			snaps++
			if got := h.Sum64(); got != p.digest {
				t.Errorf("%d snapshots of %d events digest to %#x, want %#x", snaps, len(c.events), got, p.digest)
			}
		})
	}
}
