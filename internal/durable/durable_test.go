package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"lpp/internal/faultfs"
	"lpp/internal/trace"
)

func testEvents(seed int, n int) []trace.Event {
	events := make([]trace.Event, 0, n+1)
	events = append(events, trace.Event{Kind: trace.EventBlock, Block: trace.BlockID(seed), Instrs: 10})
	for i := 0; i < n; i++ {
		events = append(events, trace.Event{Kind: trace.EventAccess, Addr: trace.Addr(seed<<20 | i*8)})
	}
	return events
}

func sameEvents(a, b []trace.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestAppendLoadRoundtrip(t *testing.T) {
	st, err := Open(t.TempDir(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	l := st.Session("run/1") // exercises path escaping
	for seq := uint64(1); seq <= 5; seq++ {
		if err := l.Append(Entry{Seq: seq, Events: testEvents(int(seq), 100)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	got, err := st.Session("run/1").Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 0 || got.Snapshot != nil {
		t.Fatalf("unexpected checkpoint: seq %d", got.Seq)
	}
	if len(got.Entries) != 5 || got.LastSeq() != 5 {
		t.Fatalf("got %d entries, last %d", len(got.Entries), got.LastSeq())
	}
	for i, e := range got.Entries {
		if e.Seq != uint64(i+1) || !sameEvents(e.Events, testEvents(i+1, 100)) {
			t.Fatalf("entry %d mismatch: seq %d", i, e.Seq)
		}
	}
	ids, err := st.List()
	if err != nil || len(ids) != 1 || ids[0] != "run/1" {
		t.Fatalf("List = %v, %v", ids, err)
	}
	if !st.Exists("run/1") || st.Exists("other") {
		t.Fatal("Exists wrong")
	}
}

func TestCheckpointResetsWAL(t *testing.T) {
	st, _ := Open(t.TempDir(), nil, false)
	l := st.Session("s")
	for seq := uint64(1); seq <= 3; seq++ {
		if err := l.Append(Entry{Seq: seq, Events: testEvents(int(seq), 10)}); err != nil {
			t.Fatal(err)
		}
	}
	snap := []byte("detector-image")
	resp := []byte("cached-response")
	if err := l.Checkpoint(3, snap, resp); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Entry{Seq: 4, Events: testEvents(4, 10)}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	got, err := st.Session("s").Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 3 || string(got.Snapshot) != string(snap) || string(got.Response) != string(resp) {
		t.Fatalf("checkpoint not recovered: seq %d", got.Seq)
	}
	if len(got.Entries) != 1 || got.Entries[0].Seq != 4 {
		t.Fatalf("wal suffix = %+v", got.Entries)
	}
}

// TestStaleWALEntriesSkipped models a crash between the checkpoint
// rename and the WAL reset: records at or below the checkpoint seq must
// be skipped, later ones kept.
func TestStaleWALEntriesSkipped(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir, nil, false)
	l := st.Session("s")
	for seq := uint64(1); seq <= 4; seq++ {
		if err := l.Append(Entry{Seq: seq, Events: testEvents(int(seq), 5)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Craft a checkpoint on a scratch log, then move just the snapshot
	// file over — leaving s's WAL unreset, as a crash between the
	// checkpoint rename and the WAL reset would.
	ck := st.Session("s")
	scratch := st.Session("scratch")
	if err := scratch.Checkpoint(2, []byte("snap"), nil); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(
		filepath.Join(dir, "scratch", ckptName),
		filepath.Join(dir, "s", ckptName),
	); err != nil {
		t.Fatal(err)
	}
	got, err := ck.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 2 || len(got.Entries) != 2 || got.Entries[0].Seq != 3 || got.Entries[1].Seq != 4 {
		t.Fatalf("state = seq %d entries %+v", got.Seq, got.Entries)
	}
}

// TestTornTailRepaired cuts bytes off the WAL at every offset inside
// the final record: Load must keep all whole records, flag the tear,
// and leave the file appendable.
func TestTornTailRepaired(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir, nil, false)
	l := st.Session("s")
	if err := l.Append(Entry{Seq: 1, Events: testEvents(1, 50)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Entry{Seq: 2, Events: testEvents(2, 50)}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	walPath := filepath.Join(dir, "s", walName)
	whole, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	for cut := int64(1); cut < 40; cut += 3 {
		if err := os.WriteFile(walPath, whole, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := faultfs.TruncateTail(walPath, cut); err != nil {
			t.Fatal(err)
		}
		got, err := st.Session("s").Load()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !got.TornTail {
			t.Fatalf("cut %d: tear not flagged", cut)
		}
		if len(got.Entries) != 1 || got.Entries[0].Seq != 1 {
			t.Fatalf("cut %d: entries %+v", cut, got.Entries)
		}
		// The repaired file must accept the re-sent record cleanly.
		l := st.Session("s")
		if err := l.Append(Entry{Seq: 2, Events: testEvents(2, 50)}); err != nil {
			t.Fatalf("cut %d: append after repair: %v", cut, err)
		}
		l.Close()
		again, err := st.Session("s").Load()
		if err != nil || len(again.Entries) != 2 {
			t.Fatalf("cut %d: reload after repair: %d entries, %v", cut, len(again.Entries), err)
		}
	}
}

// TestCorruptionDetected flips bits in the middle of the WAL and the
// checkpoint: Load must report ErrCorrupt, not accept the data.
func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir, nil, false)
	l := st.Session("s")
	for seq := uint64(1); seq <= 3; seq++ {
		if err := l.Append(Entry{Seq: seq, Events: testEvents(int(seq), 50)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(3, []byte("snapshot-bytes"), []byte("resp")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Entry{Seq: 4, Events: testEvents(4, 50)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Entry{Seq: 5, Events: testEvents(5, 50)}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Mid-WAL flip: inside the first record's payload, not the tail.
	if err := faultfs.FlipBit(filepath.Join(dir, "s", walName), 20, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Session("s").Load(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wal bit flip: err = %v, want ErrCorrupt", err)
	}

	// Checkpoint flip.
	if err := faultfs.FlipBit(filepath.Join(dir, "s", ckptName), 12, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Session("s").Load(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("checkpoint bit flip: err = %v, want ErrCorrupt", err)
	}
}

func TestRemove(t *testing.T) {
	st, _ := Open(t.TempDir(), nil, false)
	l := st.Session("s")
	if err := l.Append(Entry{Seq: 1, Events: testEvents(1, 5)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Remove(); err != nil {
		t.Fatal(err)
	}
	if st.Exists("s") {
		t.Fatal("session survives Remove")
	}
}

// TestInjectedWriteErrors drives Append and Checkpoint into injected
// disk faults: every operation must surface the error, and the store
// must keep working once the fault clears.
func TestInjectedWriteErrors(t *testing.T) {
	inj := faultfs.NewInjector(nil)
	st, err := Open(t.TempDir(), inj, true)
	if err != nil {
		t.Fatal(err)
	}
	l := st.Session("s")
	if err := l.Append(Entry{Seq: 1, Events: testEvents(1, 20)}); err != nil {
		t.Fatal(err)
	}

	inj.FailWritesAfter(0, nil)
	if err := l.Append(Entry{Seq: 2, Events: testEvents(2, 20)}); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("append under fault: err = %v", err)
	}
	if err := l.Checkpoint(1, []byte("snap"), nil); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("checkpoint under fault: err = %v", err)
	}
	inj.Disarm()

	if err := l.Append(Entry{Seq: 2, Events: testEvents(2, 20)}); err != nil {
		t.Fatalf("append after fault cleared: %v", err)
	}
	l.Close()
	got, err := st.Session("s").Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.LastSeq() != 2 {
		t.Fatalf("last seq %d after fault recovery, want 2", got.LastSeq())
	}
}

func TestCheckpointCodecRoundtrip(t *testing.T) {
	seq, snap, resp := uint64(42), []byte("LPPBUS1 framed image"), []byte(`{"kind":"boundary"}`+"\n")
	img := EncodeCheckpoint(seq, snap, resp)
	gotSeq, gotSnap, gotResp, err := DecodeCheckpoint(img)
	if err != nil {
		t.Fatal(err)
	}
	if gotSeq != seq || !bytes.Equal(gotSnap, snap) || !bytes.Equal(gotResp, resp) {
		t.Fatalf("decode = (%d, %q, %q), want (%d, %q, %q)", gotSeq, gotSnap, gotResp, seq, snap, resp)
	}
	// A flipped bit anywhere must be caught by the CRC.
	img[len(img)/2] ^= 0x10
	if _, _, _, err := DecodeCheckpoint(img); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted image: err = %v, want ErrCorrupt", err)
	}
}

func TestReadCheckpoint(t *testing.T) {
	st, err := Open(t.TempDir(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	l := st.Session("s")
	// No checkpoint yet: seq 0, no error.
	if seq, snap, _, err := l.ReadCheckpoint(); err != nil || seq != 0 || snap != nil {
		t.Fatalf("empty session: (%d, %v, %v)", seq, snap, err)
	}
	if err := l.Append(Entry{Seq: 1, Events: testEvents(1, 10)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(1, []byte("image"), []byte("resp")); err != nil {
		t.Fatal(err)
	}
	seq, snap, resp, err := l.ReadCheckpoint()
	if err != nil || seq != 1 || string(snap) != "image" || string(resp) != "resp" {
		t.Fatalf("ReadCheckpoint = (%d, %q, %q, %v)", seq, snap, resp, err)
	}
	// ReadCheckpoint must not disturb the WAL suffix.
	if err := l.Append(Entry{Seq: 2, Events: testEvents(2, 10)}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	got, err := st.Session("s").Load()
	if err != nil || got.Seq != 1 || got.LastSeq() != 2 {
		t.Fatalf("Load after ReadCheckpoint: seq %d last %d err %v", got.Seq, got.LastSeq(), err)
	}
}
