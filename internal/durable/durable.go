// Package durable persists streaming phase-detection sessions so a
// crash, deploy, or eviction loses nothing a detector has learned. Each
// session owns a directory holding two files:
//
//   - snapshot.bin — the latest detector checkpoint (opaque bytes from
//     online.Snapshot) plus the sequence number it covers and the
//     cached response of that sequence number, CRC-protected and
//     replaced atomically (write temp + rename);
//   - wal.log — a write-ahead log of every chunk accepted after the
//     checkpoint, framed with a length prefix and a per-record CRC.
//
// Recovery loads the snapshot and replays the WAL suffix. A torn final
// record (crash mid-append) is expected and repaired by truncation; a
// CRC mismatch anywhere else is real corruption and is reported, never
// silently accepted. Chunks are appended before they are processed, so
// a worker killed mid-chunk replays that chunk on recovery and the
// recovered detector emits exactly the boundaries of an uninterrupted
// run.
package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/url"
	"os"
	"path/filepath"

	"lpp/internal/codec"
	"lpp/internal/faultfs"
	"lpp/internal/trace"
)

const (
	walMagic  = "LPPWAL1\n"
	ckptMagic = "LPPCKPT1"
	walName   = "wal.log"
	ckptName  = "snapshot.bin"
	maxRecord = 1 << 30
	// maxKeptBuf bounds the encode buffer a Log keeps between
	// Appends, so one huge chunk does not pin its size for the
	// session's life.
	maxKeptBuf = 1 << 20
)

// ErrCorrupt marks state that failed validation: a bad CRC, a broken
// frame, or a sequence gap. Distinguish it from a torn tail, which Load
// tolerates and repairs.
var ErrCorrupt = errors.New("durable: corrupt")

// errCheckpoint marks a checkpoint whose fields fail to decode.
var errCheckpoint = fmt.Errorf("%w: checkpoint", ErrCorrupt)

// Store manages the per-session durable state under one root
// directory.
type Store struct {
	dir  string
	fs   faultfs.FS
	sync bool
}

// Open returns a Store rooted at dir, creating it if needed. A nil fs
// uses the real filesystem; syncWrites fsyncs every WAL append and
// checkpoint (durability against power loss, at a latency cost).
func Open(dir string, fsys faultfs.FS, syncWrites bool) (*Store, error) {
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: open store: %w", err)
	}
	return &Store{dir: dir, fs: fsys, sync: syncWrites}, nil
}

// List returns the IDs of sessions with durable state.
func (s *Store) List() ([]string, error) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("durable: list: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id, err := url.PathUnescape(e.Name())
		if err != nil {
			continue // not a session directory we created
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// Exists reports whether session id has durable state on disk.
func (s *Store) Exists(id string) bool {
	_, err := s.fs.Stat(s.sessionDir(id))
	return err == nil
}

// Session returns the session's log handle. No I/O happens until the
// first Load, Append, or Checkpoint.
func (s *Store) Session(id string) *Log {
	return &Log{dir: s.sessionDir(id), fs: s.fs, sync: s.sync}
}

func (s *Store) sessionDir(id string) string {
	return filepath.Join(s.dir, url.PathEscape(id))
}

// Log is one session's durable state: its checkpoint and write-ahead
// log. It is not safe for concurrent use; the session worker is the
// sole owner.
type Log struct {
	dir  string
	fs   faultfs.FS
	sync bool
	w    faultfs.File // open WAL append handle, nil until first Append
	buf  []byte       // record encode buffer, reused across Appends
}

// Entry is one WAL record: an accepted chunk keyed by its session
// sequence number.
type Entry struct {
	Seq    uint64
	Events []trace.Event
}

// State is everything Load recovered for a session.
type State struct {
	// Seq is the checkpoint's sequence number (0 = no checkpoint).
	Seq uint64
	// Snapshot is the checkpointed detector image (nil = none).
	Snapshot []byte
	// Response is the cached NDJSON-able response bytes for Seq.
	Response []byte
	// Entries is the WAL suffix to replay, contiguous from Seq+1.
	Entries []Entry
	// TornTail reports that the WAL ended mid-record (crash during an
	// append); the torn bytes were discarded and the file repaired.
	TornTail bool
}

// LastSeq returns the highest sequence number covered by the state.
func (st *State) LastSeq() uint64 {
	if n := len(st.Entries); n > 0 {
		return st.Entries[n-1].Seq
	}
	return st.Seq
}

// Load reads the checkpoint and WAL. Missing files yield an empty
// state; a torn WAL tail is repaired; corruption returns an error
// wrapping ErrCorrupt together with whatever was recovered before it.
func (l *Log) Load() (*State, error) {
	st := &State{}
	ckpt, err := l.fs.ReadFile(filepath.Join(l.dir, ckptName))
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return st, fmt.Errorf("durable: read checkpoint: %w", err)
	default:
		if err := parseCheckpoint(ckpt, st); err != nil {
			return st, err
		}
	}
	wal, err := l.fs.ReadFile(filepath.Join(l.dir, walName))
	switch {
	case errors.Is(err, os.ErrNotExist):
		return st, nil
	case err != nil:
		return st, fmt.Errorf("durable: read wal: %w", err)
	}
	valid, err := parseWAL(wal, st)
	if err != nil {
		return st, err
	}
	if st.TornTail {
		// Repair: rewrite the valid prefix so the next append starts at
		// a clean record boundary.
		if err := faultfs.WriteFileAtomic(l.fs, filepath.Join(l.dir, walName), wal[:valid], l.sync); err != nil {
			return st, fmt.Errorf("durable: repair torn wal: %w", err)
		}
	}
	return st, nil
}

// parseCheckpoint decodes snapshot.bin into st.
func parseCheckpoint(data []byte, st *State) error {
	if len(data) < len(ckptMagic)+4 || string(data[:len(ckptMagic)]) != ckptMagic {
		return fmt.Errorf("%w: checkpoint header", ErrCorrupt)
	}
	body, ok := codec.Unseal(data)
	if !ok {
		return fmt.Errorf("%w: checkpoint checksum", ErrCorrupt)
	}
	d := codec.NewDec(body[len(ckptMagic):], errCheckpoint)
	seq := d.U64()
	snap := d.Blob()
	resp := d.Blob()
	if err := d.Done(); err != nil {
		return err
	}
	st.Seq = seq
	st.Snapshot = snap
	st.Response = resp
	return nil
}

// parseWAL scans records into st.Entries and returns the byte offset of
// the end of the last whole record (the valid prefix).
func parseWAL(data []byte, st *State) (valid int, err error) {
	if len(data) < len(walMagic) {
		if string(data) == walMagic[:len(data)] {
			// Torn header write: treat as an empty log.
			st.TornTail = true
			return 0, nil
		}
		return 0, fmt.Errorf("%w: wal header", ErrCorrupt)
	}
	if string(data[:len(walMagic)]) != walMagic {
		return 0, fmt.Errorf("%w: wal header", ErrCorrupt)
	}
	off := len(walMagic)
	last := st.Seq
	var (
		src bytes.Reader
		r   trace.Reader
	)
	for off < len(data) {
		recLen, n := binary.Uvarint(data[off:])
		if n <= 0 || recLen > maxRecord {
			st.TornTail = true
			return off, nil
		}
		end := off + n + int(recLen) + 4
		if int(recLen) > len(data)-off-n-4 {
			st.TornTail = true
			return off, nil
		}
		payload := data[off+n : end-4]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[end-4:]) {
			if end == len(data) {
				// The final record was torn mid-write, not corrupted at
				// rest: its frame is complete but its bytes are not.
				st.TornTail = true
				return off, nil
			}
			return off, fmt.Errorf("%w: wal record at %d: checksum", ErrCorrupt, off)
		}
		e, perr := parseRecord(payload, &src, &r)
		if perr != nil {
			return off, fmt.Errorf("%w: wal record at %d: %v", ErrCorrupt, off, perr)
		}
		if e.Seq > st.Seq { // records at or before the checkpoint are stale
			if e.Seq != last+1 {
				return off, fmt.Errorf("%w: wal sequence gap: %d after %d", ErrCorrupt, e.Seq, last)
			}
			last = e.Seq
			st.Entries = append(st.Entries, e)
		}
		off = end
	}
	return off, nil
}

// parseRecord decodes one record's payload, reading its events through
// r over src so that one decode buffer serves a whole WAL.
func parseRecord(payload []byte, src *bytes.Reader, r *trace.Reader) (Entry, error) {
	var e Entry
	seq, n := binary.Uvarint(payload)
	if n <= 0 || len(payload) < n+1 {
		return e, errors.New("bad frame")
	}
	e.Seq = seq
	// The flags byte is reserved: no flag is defined, so any set bit
	// marks a record this version cannot replay.
	if flags := payload[n]; flags != 0 {
		return e, fmt.Errorf("unknown flags %#x", flags)
	}
	src.Reset(payload[n+1:])
	r.Reset(src)
	for {
		ev, err := r.Next()
		if err == io.EOF {
			return e, nil
		}
		if err != nil {
			return e, err
		}
		e.Events = append(e.Events, ev)
	}
}

// Append durably records an accepted chunk before it is processed.
func (l *Log) Append(e Entry) error {
	if l.w == nil {
		if err := l.openWAL(); err != nil {
			return err
		}
	}
	// The payload is encoded after room for the longest length prefix,
	// and the prefix then fills the end of that room.
	const room = binary.MaxVarintLen64
	b := append(l.buf[:0], make([]byte, room)...)
	b = binary.AppendUvarint(b, e.Seq)
	b = append(b, 0) // flags byte, reserved
	b = trace.AppendFile(b, e.Events)
	payload := b[room:]
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	var prefix [room]byte
	start := room - binary.PutUvarint(prefix[:], uint64(len(payload)))
	copy(b[start:], prefix[:room-start])
	if cap(b) <= maxKeptBuf {
		l.buf = b
	}
	if _, err := l.w.Write(b[start:]); err != nil {
		l.closeWAL()
		return fmt.Errorf("durable: wal append: %w", err)
	}
	if l.sync {
		if err := l.w.Sync(); err != nil {
			l.closeWAL()
			return fmt.Errorf("durable: wal sync: %w", err)
		}
	}
	return nil
}

// EncodeCheckpoint renders a checkpoint image — the LPPCKPT1-framed,
// CRC-sealed bytes written to snapshot.bin. The same encoding doubles
// as the peer-replication wire format: a replica validates the frame
// and writes it through Checkpoint on its own store.
func EncodeCheckpoint(seq uint64, snapshot, response []byte) []byte {
	e := codec.Enc{Buf: []byte(ckptMagic)}
	e.U64(seq)
	e.Blob(snapshot)
	e.Blob(response)
	return codec.Seal(e.Buf)
}

// DecodeCheckpoint validates and splits a checkpoint image produced by
// EncodeCheckpoint. Corruption is reported wrapping ErrCorrupt; the
// returned slices alias data.
func DecodeCheckpoint(data []byte) (seq uint64, snapshot, response []byte, err error) {
	var st State
	if err := parseCheckpoint(data, &st); err != nil {
		return 0, nil, nil, err
	}
	return st.Seq, st.Snapshot, st.Response, nil
}

// ReadCheckpoint reads the session's current checkpoint without
// touching the WAL: the latest state image a peer replica needs during
// a full resync. A session with no checkpoint returns seq 0 and nil
// slices with no error; corruption is reported.
func (l *Log) ReadCheckpoint() (seq uint64, snapshot, response []byte, err error) {
	data, err := l.fs.ReadFile(filepath.Join(l.dir, ckptName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil, nil, nil
	}
	if err != nil {
		return 0, nil, nil, fmt.Errorf("durable: read checkpoint: %w", err)
	}
	return DecodeCheckpoint(data)
}

// Checkpoint atomically replaces the snapshot and resets the WAL. The
// snapshot is renamed into place before the WAL is reset, so a crash
// between the two leaves stale WAL records that recovery skips by
// sequence number.
func (l *Log) Checkpoint(seq uint64, snapshot, response []byte) error {
	body := EncodeCheckpoint(seq, snapshot, response)
	if err := faultfs.WriteFileAtomic(l.fs, filepath.Join(l.dir, ckptName), body, l.sync); err != nil {
		return fmt.Errorf("durable: checkpoint: %w", err)
	}
	l.closeWAL()
	if err := faultfs.WriteFileAtomic(l.fs, filepath.Join(l.dir, walName), []byte(walMagic), l.sync); err != nil {
		return fmt.Errorf("durable: reset wal: %w", err)
	}
	return nil
}

// Remove deletes the session's durable state.
func (l *Log) Remove() error {
	l.closeWAL()
	return l.fs.RemoveAll(l.dir)
}

// Close releases the WAL handle (state stays on disk).
func (l *Log) Close() { l.closeWAL() }

func (l *Log) openWAL() error {
	if err := l.fs.MkdirAll(l.dir, 0o755); err != nil {
		return fmt.Errorf("durable: session dir: %w", err)
	}
	name := filepath.Join(l.dir, walName)
	fresh := false
	if fi, err := l.fs.Stat(name); err != nil || fi.Size() == 0 {
		fresh = true
	}
	f, err := l.fs.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("durable: open wal: %w", err)
	}
	if fresh {
		if _, err := f.Write([]byte(walMagic)); err != nil {
			f.Close()
			return fmt.Errorf("durable: wal header: %w", err)
		}
	}
	l.w = f
	return nil
}

func (l *Log) closeWAL() {
	if l.w != nil {
		l.w.Close()
		l.w = nil
	}
}
