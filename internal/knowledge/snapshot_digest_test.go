package knowledge

import (
	"hash/fnv"
	"testing"

	"lpp/internal/core"
	"lpp/internal/phase"
	"lpp/internal/predictor"
	"lpp/internal/workload"
)

// digestPrograms are golden workloads whose offline bus streams feed
// the chain and store digests.
var digestPrograms = []struct {
	name   string
	params workload.Params
}{
	{"fft", workload.Params{N: 512, Steps: 20, Seed: 1}},
	{"tomcatv", workload.Params{N: 48, Steps: 20, Seed: 1}},
	{"mesh", workload.Params{N: 2048, Steps: 20, Seed: 1}},
}

// Digests (fnv64a) recorded before the snapshot codec was shared
// between packages: they pin that the LPPCHN image of a knowledge-led
// chain and the LPPKNW1 store image are unchanged.
const (
	chainDigest = 0xc0eadb4e9a590c2b
	storeDigest = 0x57f274c4a8755933
)

// recorder is a phase.Consumer that keeps every event it is fed.
type recorder struct{ events []phase.Event }

func (r *recorder) Name() string                 { return "recorder" }
func (r *recorder) Consume(ev phase.Event) error { r.events = append(r.events, ev); return nil }
func (r *recorder) Snapshot() []byte             { return nil }
func (r *recorder) Restore([]byte) error         { return nil }

// digestStreams returns the phase-bus streams of the digest programs'
// offline predicted runs.
func digestStreams(t *testing.T) [][]phase.Event {
	t.Helper()
	streams := make([][]phase.Event, len(digestPrograms))
	for i, p := range digestPrograms {
		spec, err := workload.ByName(p.name)
		if err != nil {
			t.Fatal(err)
		}
		det, err := core.Detect(spec.Make(p.params), core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var rec recorder
		core.PredictAllWith(spec.Make(p.params), det, &rec, predictor.Relaxed)
		streams[i] = rec.events
	}
	return streams
}

// sessionChain builds the server's chain shape: a knowledge consumer
// leading the four stock consumers, targeting the strict predictor.
func sessionChain(t *testing.T, store *Store) (*phase.Chain, *Consumer) {
	t.Helper()
	stock, err := phase.ParseChain("predictor:strict,cacheresize,dvfs,remap")
	if err != nil {
		t.Fatal(err)
	}
	cons := stock.Consumers()
	kc := NewConsumer(store, cons[0].(*phase.PredictorConsumer))
	return phase.NewChain(append([]phase.Consumer{kc}, cons...)...), kc
}

// TestChainAndStoreBytesDigest runs two sessions per digest program
// over one store. The first trains: its chain snapshots are hashed
// after every event and its entry is contributed, after which the
// store's LPPKNW1 image is hashed. The second replays the same stream
// and warm-starts from the store; its chain snapshots are hashed too,
// and the store once more after its hit.
func TestChainAndStoreBytesDigest(t *testing.T) {
	store := NewStore(Config{})
	chainHash, storeHash := fnv.New64a(), fnv.New64a()
	warm := 0
	for i, evs := range digestStreams(t) {
		for pass := 0; pass < 2; pass++ {
			ch, kc := sessionChain(t, store)
			for _, ev := range evs {
				ch.Consume(ev)
				chainHash.Write(ch.Snapshot())
			}
			if pass == 0 {
				entry, ok := kc.Entry()
				if !ok {
					t.Fatalf("%s: training session produced no entry", digestPrograms[i].name)
				}
				store.Contribute(entry)
			} else if _, _, ok := kc.WarmStarted(); ok {
				warm++
			}
			storeHash.Write(store.Snapshot())
		}
	}
	if warm == 0 {
		t.Fatal("no replay session warm-started; the digest would not cover a match")
	}
	if got := chainHash.Sum64(); got != chainDigest {
		t.Errorf("chain snapshots digest to %#x, want %#x", got, uint64(chainDigest))
	}
	if got := storeHash.Sum64(); got != storeDigest {
		t.Errorf("store snapshots digest to %#x, want %#x", got, uint64(storeDigest))
	}
}
