package online

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"lpp/internal/phase"
	"lpp/internal/trace"
	"lpp/internal/workload"
)

var updateGolden = flag.Bool("update", false, "regenerate golden trace fixtures")

// goldenEvent mirrors phase.Event with a stable wire spelling so fixture
// diffs read as English, not iota values.
type goldenEvent struct {
	Kind         string `json:"kind"`
	Time         int64  `json:"time"`
	Instructions int64  `json:"instructions"`
	Phase        int    `json:"phase"`
}

// goldenCounters pins the deterministic counters of Stats. Gauges
// (window length, live buckets) are deliberately
// excluded: they describe transient memory state, not detection output.
type goldenCounters struct {
	Accesses     int64 `json:"accesses"`
	Blocks       int64 `json:"blocks"`
	Instructions int64 `json:"instructions"`
	Samples      int64 `json:"samples"`
	Filtered     int64 `json:"filtered"`
	Boundaries   int64 `json:"boundaries"`
	Predictions  int64 `json:"predictions"`
	Adjustments  int   `json:"adjustments"`
}

type goldenFixture struct {
	Workload string         `json:"workload"`
	Events   []goldenEvent  `json:"events"`
	Stats    goldenCounters `json:"stats"`
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".json")
}

// goldenChunkSizes slices each trace into uneven chunks so batch
// boundaries land inside access runs, on block events, and on
// single-event chunks — the shapes the ingest service produces.
var goldenChunkSizes = []int{1, 7, 64, 1, 1024, 4096, 3, 509}

// goldenRun streams a trace through a fresh detector via feed and
// returns the fixture-shaped result, collecting events through OnEvent.
func goldenRun(c parityCase, rec *trace.Recorded, feed func(*Detector, *trace.Recorded)) goldenFixture {
	var events []goldenEvent
	cfg := DefaultConfig()
	cfg.KeepIrregular = c.keepIrregular
	cfg.OnEvent = func(ev phase.Event) {
		events = append(events, goldenEvent{
			Kind:         ev.Kind.String(),
			Time:         ev.Time,
			Instructions: ev.Instructions,
			Phase:        ev.Phase,
		})
	}
	d := NewDetector(cfg)
	feed(d, rec)
	d.Flush()
	st := d.Stats()
	return goldenFixture{
		Workload: c.name,
		Events:   events,
		Stats: goldenCounters{
			Accesses:     st.Accesses,
			Blocks:       st.Blocks,
			Instructions: st.Instructions,
			Samples:      st.Samples,
			Filtered:     st.Filtered,
			Boundaries:   st.Boundaries,
			Predictions:  st.Predictions,
			Adjustments:  st.Adjustments,
		},
	}
}

func feedPerEvent(d *Detector, rec *trace.Recorded) {
	rec.Replay(d)
}

func feedBatched(d *Detector, rec *trace.Recorded) {
	events := rec.Events()
	for off, k := 0, 0; off < len(events); k++ {
		end := off + goldenChunkSizes[k%len(goldenChunkSizes)]
		if end > len(events) {
			end = len(events)
		}
		d.AccessBatch(events[off:end])
		off = end
	}
}

// feedColumns is the v2 ingest path: each uneven chunk is encoded as a
// columnar v2 frame, decoded back into a reused Columns (exactly what
// the server's pooled decode does), and fed through AccessColumns — so
// the golden suites pin the whole encode→decode→columnar-feed pipeline
// against the per-event truth, not just the feed loop.
func feedColumns(d *Detector, rec *trace.Recorded) {
	events := rec.Events()
	var (
		buf  []byte
		cols trace.Columns
	)
	for off, k := 0, 0; off < len(events); k++ {
		end := off + goldenChunkSizes[k%len(goldenChunkSizes)]
		if end > len(events) {
			end = len(events)
		}
		buf = buf[:0]
		var err error
		if buf, err = trace.AppendChunkV2(buf, events[off:end]); err != nil {
			panic(err)
		}
		if err := trace.DecodeChunkV2(buf, &cols, 0); err != nil {
			panic(err)
		}
		d.AccessColumns(&cols)
		off = end
	}
}

func diffFixtures(t *testing.T, label string, got, want goldenFixture) {
	t.Helper()
	if got.Stats != want.Stats {
		t.Errorf("%s: counters diverge:\n got  %+v\n want %+v", label, got.Stats, want.Stats)
	}
	if len(got.Events) != len(want.Events) {
		t.Errorf("%s: %d events, want %d", label, len(got.Events), len(want.Events))
		return
	}
	for i := range want.Events {
		if got.Events[i] != want.Events[i] {
			t.Errorf("%s: event %d = %+v, want %+v", label, i, got.Events[i], want.Events[i])
			return
		}
	}
}

// TestGoldenTraces replays the nine benchmark workloads through the
// detector on both ingest paths — one call per event, and server-style
// uneven batches through AccessBatch — and pins the complete output
// (every phase event plus the deterministic counters) against checked-in
// fixtures. Run with -update to regenerate the fixtures after an
// intentional algorithm change; the batched path must match the
// per-event path regardless, so -update cannot paper over a batching
// bug.
func TestGoldenTraces(t *testing.T) {
	for _, c := range parityCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			spec, err := workload.ByName(c.name)
			if err != nil {
				t.Fatal(err)
			}
			rec := trace.NewRecorder(1<<20, 1<<16)
			spec.Make(c.train).Run(rec)

			perEvent := goldenRun(c, &rec.T, feedPerEvent)
			batched := goldenRun(c, &rec.T, feedBatched)
			columns := goldenRun(c, &rec.T, feedColumns)
			diffFixtures(t, "batched vs per-event", batched, perEvent)
			diffFixtures(t, "columns vs per-event", columns, perEvent)

			path := goldenPath(c.name)
			if *updateGolden {
				buf, err := json.MarshalIndent(perEvent, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d events)", path, len(perEvent.Events))
				return
			}
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run go test ./internal/online -run TestGoldenTraces -update): %v", err)
			}
			var want goldenFixture
			if err := json.Unmarshal(buf, &want); err != nil {
				t.Fatalf("corrupt fixture %s: %v", path, err)
			}
			diffFixtures(t, "per-event vs fixture", perEvent, want)
			diffFixtures(t, "batched vs fixture", batched, want)
			diffFixtures(t, "columns vs fixture", columns, want)
		})
	}
}

// TestGoldenHostileTraces extends the golden tier to the three hostile
// families: the multi-tenant interleaved trace, the period-drift
// kernel, and the input-adaptive kernel. Same contract as
// TestGoldenTraces — batched ingest must match per-event ingest
// exactly, and both must match the checked-in fixture — but over
// workloads engineered to shake boundary placement loose. Fixture
// names carry a "hostile-" prefix so the nine original fixtures stay
// untouched.
func TestGoldenHostileTraces(t *testing.T) {
	for _, spec := range workload.Hostile() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			rec := trace.NewRecorder(1<<20, 1<<16)
			spec.Make(spec.Params).Run(rec)

			c := parityCase{name: "hostile-" + spec.Name}
			perEvent := goldenRun(c, &rec.T, feedPerEvent)
			batched := goldenRun(c, &rec.T, feedBatched)
			columns := goldenRun(c, &rec.T, feedColumns)
			diffFixtures(t, "batched vs per-event", batched, perEvent)
			diffFixtures(t, "columns vs per-event", columns, perEvent)

			path := goldenPath(c.name)
			if *updateGolden {
				buf, err := json.MarshalIndent(perEvent, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d events)", path, len(perEvent.Events))
				return
			}
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run go test ./internal/online -run TestGoldenHostileTraces -update): %v", err)
			}
			var want goldenFixture
			if err := json.Unmarshal(buf, &want); err != nil {
				t.Fatalf("corrupt fixture %s: %v", path, err)
			}
			diffFixtures(t, "per-event vs fixture", perEvent, want)
			diffFixtures(t, "batched vs fixture", batched, want)
			diffFixtures(t, "columns vs fixture", columns, want)
		})
	}
}
