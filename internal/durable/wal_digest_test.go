package durable

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lpp/internal/trace"
	"lpp/internal/workload"
)

// walDigest is the sha256 of the WAL bytes TestWALBytesDigest writes,
// recorded when each record was encoded through a fresh trace.Writer.
const walDigest = "69586270725dcaa9cce3c2d9f58adf0950cb50e7a641486c88c4e7461457025e"

// eventRecorder collects a run's events in order.
type eventRecorder struct{ events []trace.Event }

func (r *eventRecorder) Block(id trace.BlockID, instrs int) {
	r.events = append(r.events, trace.Event{Kind: trace.EventBlock, Block: id, Instrs: instrs})
}

func (r *eventRecorder) Access(addr trace.Addr) {
	r.events = append(r.events, trace.Event{Kind: trace.EventAccess, Addr: addr})
}

// TestWALBytesDigest pins the WAL encoding: a tomcatv trace appended
// as 1024-event chunks, a checkpoint reset, then an empty chunk and a
// chunk of extreme addresses and block fields. The WAL bytes before
// and after the reset hash to walDigest, and Load returns every chunk
// appended since the checkpoint.
func TestWALBytesDigest(t *testing.T) {
	spec, err := workload.ByName("tomcatv")
	if err != nil {
		t.Fatal(err)
	}
	params := spec.Train
	params.N, params.Steps = 24, 2
	var rec eventRecorder
	spec.Make(params).Run(&rec)

	dir := t.TempDir()
	st, err := Open(dir, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	l := st.Session("s")
	walPath := filepath.Join(dir, "s", walName)
	h := sha256.New()
	seq := uint64(0)
	for off := 0; off < len(rec.events); off += 1024 {
		seq++
		if err := l.Append(Entry{Seq: seq, Events: rec.events[off:min(off+1024, len(rec.events))]}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(data)

	if err := l.Checkpoint(seq, []byte("snap"), []byte("resp")); err != nil {
		t.Fatal(err)
	}
	tail := []Entry{
		{Seq: seq + 1},
		{Seq: seq + 2, Events: []trace.Event{
			{Kind: trace.EventAccess, Addr: 1<<64 - 1},
			{Kind: trace.EventAccess, Addr: 0},
			{Kind: trace.EventBlock, Block: 1<<32 - 1, Instrs: 1 << 40},
			{Kind: trace.EventAccess, Addr: 1 << 63},
			{Kind: trace.EventBlock},
			{Kind: trace.EventAccess, Addr: 8},
		}},
	}
	for _, e := range tail {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	if data, err = os.ReadFile(walPath); err != nil {
		t.Fatal(err)
	}
	h.Write(data)
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != walDigest {
		t.Errorf("%d chunks of %d events: WAL digest %s, want %s", seq, len(rec.events), got, walDigest)
	}

	loaded, err := st.Session("s").Load()
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Seq != seq || len(loaded.Entries) != len(tail) {
		t.Fatalf("Load: checkpoint seq %d with %d entries, want %d with %d", loaded.Seq, len(loaded.Entries), seq, len(tail))
	}
	for i, e := range loaded.Entries {
		if e.Seq != tail[i].Seq || !sameEvents(e.Events, tail[i].Events) {
			t.Errorf("entry %d: seq %d, %d events; want seq %d, %d events", i, e.Seq, len(e.Events), tail[i].Seq, len(tail[i].Events))
		}
	}
}
