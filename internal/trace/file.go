package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// File format: the portable equivalent of an ATOM-generated trace. A
// short magic header is followed by a stream of events; block events
// carry the block ID and instruction count, access events carry the
// address as a zigzag delta from the previous access, which makes
// sequential sweeps nearly free to store.
const fileMagic = "LPPTRACE1\n"

// Event tags.
const (
	tagBlock  = 0x00
	tagAccess = 0x01
)

// Writer streams instrumentation events to an io.Writer in the trace
// file format. It implements Instrumenter; Close (or Flush) must be
// called to complete the file.
type Writer struct {
	w        *bufio.Writer
	prevAddr Addr
	err      error
	events   uint64
}

// NewWriter returns a Writer that has already emitted the file header.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriterSize(w, 1<<16)
	tw := &Writer{w: bw}
	if _, err := bw.WriteString(fileMagic); err != nil {
		tw.err = err
	}
	return tw
}

// Block implements Instrumenter.
func (t *Writer) Block(id BlockID, instrs int) {
	if t.err != nil {
		return
	}
	var buf [1 + 2*binary.MaxVarintLen64]byte
	_, t.err = t.w.Write(appendBlock(buf[:0], id, instrs))
	t.events++
}

// Access implements Instrumenter.
func (t *Writer) Access(addr Addr) {
	if t.err != nil {
		return
	}
	var buf [1 + binary.MaxVarintLen64]byte
	_, t.err = t.w.Write(appendAccess(buf[:0], addr, t.prevAddr))
	t.prevAddr = addr
	t.events++
}

// AppendFile appends events to dst as a complete trace file, header
// included: the bytes a Writer fed the same events produces.
func AppendFile(dst []byte, events []Event) []byte {
	dst = append(dst, fileMagic...)
	var prev Addr
	for _, ev := range events {
		if ev.Kind == EventBlock {
			dst = appendBlock(dst, ev.Block, ev.Instrs)
		} else {
			dst = appendAccess(dst, ev.Addr, prev)
			prev = ev.Addr
		}
	}
	return dst
}

func appendBlock(dst []byte, id BlockID, instrs int) []byte {
	dst = append(dst, tagBlock)
	dst = binary.AppendUvarint(dst, uint64(id))
	return binary.AppendUvarint(dst, uint64(instrs))
}

// appendAccess encodes addr as a zigzag delta from prev.
func appendAccess(dst []byte, addr, prev Addr) []byte {
	dst = append(dst, tagAccess)
	return binary.AppendVarint(dst, int64(addr)-int64(prev))
}

// Flush completes the file and reports any deferred write error.
func (t *Writer) Flush() error {
	if t.err != nil {
		return fmt.Errorf("trace: write: %w", t.err)
	}
	if err := t.w.Flush(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

// Events returns the number of events written.
func (t *Writer) Events() uint64 { return t.events }

// EventKind discriminates decoded trace events.
type EventKind uint8

// Event kinds.
const (
	EventBlock EventKind = iota
	EventAccess
)

// Event is one decoded trace event, the unit the streaming Reader
// yields. Block events carry Block and Instrs; access events carry
// Addr.
type Event struct {
	Kind   EventKind
	Addr   Addr
	Block  BlockID
	Instrs int
}

// Feed applies the event to an Instrumenter.
func (e Event) Feed(ins Instrumenter) {
	if e.Kind == EventBlock {
		ins.Block(e.Block, e.Instrs)
	} else {
		ins.Access(e.Addr)
	}
}

// Reader incrementally decodes the trace file format, one event per
// Next call, holding only a fixed-size buffer — so arbitrarily large
// traces (and unbounded network streams in the same format) can be
// consumed without materializing them. The header is read lazily on
// the first Next.
type Reader struct {
	br *bufio.Reader
	// own is the Reader-owned buffer, kept across Resets whose source
	// is not itself an adequately sized *bufio.Reader.
	own       *bufio.Reader
	prevAddr  Addr
	gotHeader bool
	blocks    uint64
	accesses  uint64
}

// NewReader returns a streaming Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Reset re-aims the Reader at a new stream, reusing its buffer, so a
// pooled Reader decodes chunk after chunk without allocating. As in
// NewReader, a src that is already a large-enough *bufio.Reader is used
// directly instead of being wrapped again.
func (r *Reader) Reset(src io.Reader) {
	if br, ok := src.(*bufio.Reader); ok && br.Size() >= 1<<16 {
		r.br = br
	} else {
		if r.own == nil {
			r.own = bufio.NewReaderSize(nil, 1<<16)
		}
		r.own.Reset(src)
		r.br = r.own
	}
	r.prevAddr = 0
	r.gotHeader = false
	r.blocks = 0
	r.accesses = 0
}

// Counts returns the number of block and access events decoded so far.
func (r *Reader) Counts() (blocks, accesses uint64) {
	return r.blocks, r.accesses
}

// Next decodes the next event. It returns io.EOF at a clean end of
// stream; a stream truncated mid-event yields a wrapped
// io.ErrUnexpectedEOF instead, so callers can tell the two apart.
func (r *Reader) Next() (Event, error) {
	if !r.gotHeader {
		var magic [len(fileMagic)]byte
		if _, err := io.ReadFull(r.br, magic[:]); err != nil {
			return Event{}, fmt.Errorf("trace: read header: %w", err)
		}
		if string(magic[:]) != fileMagic {
			return Event{}, fmt.Errorf("trace: bad magic %q", magic[:])
		}
		r.gotHeader = true
	}
	tag, err := r.br.ReadByte()
	if err == io.EOF {
		return Event{}, io.EOF
	}
	if err != nil {
		return Event{}, fmt.Errorf("trace: read tag: %w", err)
	}
	switch tag {
	case tagBlock:
		id, err := binary.ReadUvarint(r.br)
		if err != nil {
			return Event{}, fmt.Errorf("trace: block id: %w", noEOF(err))
		}
		instrs, err := binary.ReadUvarint(r.br)
		if err != nil {
			return Event{}, fmt.Errorf("trace: block instrs: %w", noEOF(err))
		}
		r.blocks++
		return Event{Kind: EventBlock, Block: BlockID(id), Instrs: int(instrs)}, nil
	case tagAccess:
		delta, err := binary.ReadVarint(r.br)
		if err != nil {
			return Event{}, fmt.Errorf("trace: access delta: %w", noEOF(err))
		}
		r.prevAddr = Addr(int64(r.prevAddr) + delta)
		r.accesses++
		return Event{Kind: EventAccess, Addr: r.prevAddr}, nil
	default:
		return Event{}, fmt.Errorf("trace: unknown event tag %#x", tag)
	}
}

// noEOF upgrades a bare io.EOF in the middle of an event to
// io.ErrUnexpectedEOF: the stream ended where more bytes were owed.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ReadFile replays a trace file into ins. It returns the number of
// block and access events replayed.
func ReadFile(r io.Reader, ins Instrumenter) (blocks, accesses uint64, err error) {
	tr := NewReader(r)
	for {
		ev, err := tr.Next()
		if err == io.EOF {
			blocks, accesses = tr.Counts()
			return blocks, accesses, nil
		}
		if err != nil {
			blocks, accesses = tr.Counts()
			return blocks, accesses, err
		}
		ev.Feed(ins)
	}
}
