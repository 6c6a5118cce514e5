package server

import (
	"hash/fnv"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"lpp/internal/knowledge"
	"lpp/internal/online"
	"lpp/internal/phase"
)

// Digests (fnv64a) recorded before the snapshot codec was shared
// between packages: they pin that the LPPCKPT1 checkpoint file and the
// migration export image, each wrapping an LPPBUS1 detector + LPPCHN
// chain image, are unchanged.
const (
	checkpointDigest = 0xeb5154f554580797
	exportDigest     = 0x3bc9dd3ea4fc8340
)

// TestCheckpointImageBytesDigest streams the fft golden workload
// through a durable server whose sessions run a knowledge consumer
// ahead of the four stock consumers. A training session checkpoints
// every other chunk and contributes on close; a second session warm
// starts from it (it needs most of the stream to match) and is
// exported for migration two chunks before its end. Every checkpoint
// file and the export image are hashed.
func TestCheckpointImageBytesDigest(t *testing.T) {
	events := fftEvents(t)
	bounds := chunkBounds(len(events), 16)
	dir := t.TempDir()
	s := mustServer(t, Config{
		Detector:        online.Config{},
		DataDir:         dir,
		CheckpointEvery: 2,
		Knowledge:       knowledge.NewStore(knowledge.Config{}),
		Consumers: func() *phase.Chain {
			ch, err := phase.ParseChain("predictor:strict,cacheresize,dvfs,remap")
			if err != nil {
				t.Fatal(err)
			}
			return ch
		},
	})
	defer s.Close()

	ckpt := fnv.New64a()
	files := 0
	stream := func(id string, chunks int) {
		for i := 0; i < chunks; i++ {
			b := bounds[i]
			if rr := postSeq(t, s.Handler(), id, uint64(i+1), events[b[0]:b[1]]); rr.Code != http.StatusOK {
				t.Fatalf("%s chunk %d: %d: %s", id, i+1, rr.Code, rr.Body.String())
			}
			if (i+1)%2 != 0 {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, id, "snapshot.bin"))
			if err != nil {
				t.Fatal(err)
			}
			ckpt.Write(data)
			files++
		}
	}
	stream("train", len(bounds))
	if rr := do(t, s.Handler(), "DELETE", "/v1/sessions/train"); rr.Code != http.StatusOK {
		t.Fatalf("close train: %d", rr.Code)
	}
	stream("replay", len(bounds)-2)
	rr := do(t, s.Handler(), "POST", "/v1/migrate/sessions/replay/export")
	if rr.Code != http.StatusOK {
		t.Fatalf("export: %d: %s", rr.Code, rr.Body.String())
	}
	export := fnv.New64a()
	export.Write(rr.Body.Bytes())

	if hits := s.cfg.Knowledge.Stats().Hits; hits != 1 {
		t.Fatalf("knowledge hits = %d, want 1: the replay session must warm-start", hits)
	}
	if got := ckpt.Sum64(); got != checkpointDigest {
		t.Errorf("%d checkpoint files digest to %#x, want %#x", files, got, uint64(checkpointDigest))
	}
	if got := export.Sum64(); got != exportDigest {
		t.Errorf("export image of %d bytes digests to %#x, want %#x", rr.Body.Len(), got, uint64(exportDigest))
	}
}
