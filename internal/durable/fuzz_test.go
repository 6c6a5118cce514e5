package durable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// validWAL builds a real two-record WAL by writing through the Log.
func validWAL(t testing.TB) []byte {
	t.Helper()
	dir := t.TempDir()
	st, err := Open(dir, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	l := st.Session("s")
	if err := l.Append(Entry{Seq: 1, Events: testEvents(1, 30)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Entry{Seq: 2, Events: testEvents(2, 30)}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	data, err := os.ReadFile(filepath.Join(dir, "s", walName))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func validCheckpoint(t testing.TB) []byte {
	t.Helper()
	dir := t.TempDir()
	st, err := Open(dir, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Session("s").Checkpoint(7, []byte("snapshot-image"), []byte("resp")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "s", ckptName))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzParseWAL asserts WAL decoding never panics and that any parse
// that succeeds without a tear re-parses identically (stability).
func FuzzParseWAL(f *testing.F) {
	valid := validWAL(f)
	f.Add(valid)
	for cut := 0; cut < len(valid); cut += 1 + cut/8 {
		f.Add(valid[:cut]) // truncations, including mid-header
	}
	flip := append([]byte(nil), valid...)
	flip[len(flip)/2] ^= 0x08 // bit flip mid-record
	f.Add(flip)
	skew := append([]byte(nil), valid...)
	skew[6] = '9' // version-skewed header ("LPPWAL9\n")
	f.Add(skew)
	f.Add([]byte(walMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var st State
		valid, err := parseWAL(data, &st)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid prefix %d out of [0,%d]", valid, len(data))
		}
		if err != nil {
			return
		}
		// Entries must be contiguous from Seq+1 whenever parse accepts.
		for i, e := range st.Entries {
			if e.Seq != st.Seq+uint64(i)+1 {
				t.Fatalf("entry %d has seq %d, checkpoint %d", i, e.Seq, st.Seq)
			}
		}
		if !st.TornTail {
			var again State
			if _, err := parseWAL(data, &again); err != nil || len(again.Entries) != len(st.Entries) {
				t.Fatal("clean parse not stable")
			}
		}
	})
}

// FuzzParseCheckpoint asserts checkpoint decoding never panics and that
// corrupt inputs are detected: any accepted input must carry a valid
// CRC, so mutations are rejected, not silently applied.
func FuzzParseCheckpoint(f *testing.F) {
	valid := validCheckpoint(f)
	f.Add(valid)
	for cut := 0; cut < len(valid); cut += 1 + cut/8 {
		f.Add(valid[:cut])
	}
	flip := append([]byte(nil), valid...)
	flip[len(flip)-6] ^= 0x01
	f.Add(flip)
	skew := append([]byte(nil), valid...)
	skew[len(ckptMagic)-1] = '9' // "LPPCKPT9": a future format version
	f.Add(skew)
	f.Add([]byte(ckptMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		var st State
		if err := parseCheckpoint(data, &st); err != nil {
			return
		}
		if len(data) < len(ckptMagic)+4 {
			t.Fatal("accepted impossibly short checkpoint")
		}
		body, trailer := data[:len(data)-4], data[len(data)-4:]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
			t.Fatal("accepted checkpoint with bad CRC")
		}
	})
}

// TestWALSeeds pins the deterministic corruption cases the fuzz targets
// seed with: truncation → tolerated tear, mid-record flip → ErrCorrupt,
// header skew → ErrCorrupt.
func TestWALSeeds(t *testing.T) {
	valid := validWAL(t)

	var torn State
	if _, err := parseWAL(valid[:len(valid)-3], &torn); err != nil || !torn.TornTail {
		t.Fatalf("tail truncation: err=%v torn=%v", err, torn.TornTail)
	}
	if len(torn.Entries) != 1 {
		t.Fatalf("tail truncation kept %d entries, want 1", len(torn.Entries))
	}

	flip := append([]byte(nil), valid...)
	flip[len(walMagic)+3] ^= 0x10
	var st State
	if _, err := parseWAL(flip, &st); err == nil {
		t.Fatal("mid-record bit flip accepted")
	}

	skew := append([]byte(nil), valid...)
	skew[6] = '9'
	if _, err := parseWAL(skew, &State{}); err == nil {
		t.Fatal("version-skewed header accepted")
	}

	if !bytes.Contains(valid, []byte("LPPTRACE1\n")) {
		t.Fatal("wal records no longer embed the trace codec")
	}
}
