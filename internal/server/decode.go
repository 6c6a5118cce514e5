package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"

	"lpp/internal/trace"
)

// decodeState bundles the reusable buffers for one in-flight chunk
// decode: the read buffer, a binary trace reader, the NDJSON scanner
// buffer, the raw v2 body, and the decoded columns. Every wire format
// decodes into cols, the one event representation the rest of the
// server sees. States cycle through a sync.Pool, so the steady-state
// ingest path decodes chunk after chunk without allocating per event.
type decodeState struct {
	br  *bufio.Reader
	tr  *trace.Reader
	buf []byte
	// body holds a whole v2 chunk: its decoder is a pointer walk over
	// one contiguous buffer, not a scanner.
	body []byte
	cols trace.Columns
}

// maxRetainedEvents caps the column capacity a pooled state (or a
// worker's WAL-row scratch) keeps: an occasional pathologically dense
// chunk must not pin its worst-case buffer forever.
const maxRetainedEvents = 1 << 20

// maxRetainedBody caps the raw-chunk buffer a pooled state keeps, for
// the same reason: typical v2 chunks are tens of KiB, and one
// MaxChunkBytes-sized outlier must not stay resident per pool slot.
const maxRetainedBody = 1 << 20

var decodePool = sync.Pool{New: func() any {
	return &decodeState{
		br:  bufio.NewReaderSize(nil, 1<<16),
		buf: make([]byte, 64<<10),
	}
}}

func getDecodeState() *decodeState { return decodePool.Get().(*decodeState) }

// putDecodeState recycles st. Callers must only do so once nothing else
// can reference st.cols: after the session worker replied, or when the
// chunk was never enqueued. Chunks lost to a dying worker are left to
// the garbage collector instead.
func putDecodeState(st *decodeState) {
	st.trimForPool()
	decodePool.Put(st)
}

// trimForPool drops buffers too large to keep pooled.
func (st *decodeState) trimForPool() {
	if cap(st.body) > maxRetainedBody {
		st.body = nil
	}
	if cap(st.cols.Addrs)+cap(st.cols.IDs) > maxRetainedEvents {
		st.cols = trace.Columns{}
	}
}

// decodeChunk parses a request body as the columnar chunk format v2,
// the v1 binary trace format, or NDJSON events, into st's columns
// (valid until st is recycled). v2 and v1 are each recognized by their
// magic header or Content-Type — magic first, so a client speaking the
// new format through middleware that rewrites Content-Type still
// negotiates correctly, and old v1/NDJSON clients decode exactly as
// before.
func (s *Server) decodeChunk(r *http.Request, st *decodeState) (*trace.Columns, error) {
	body := http.MaxBytesReader(nil, r.Body, s.cfg.MaxChunkBytes)
	st.br.Reset(body)
	st.cols.Reset()
	ct := r.Header.Get("Content-Type")
	head, _ := st.br.Peek(len("LPPTRACE1\n"))
	switch {
	case trace.IsChunkV2(head) || strings.HasPrefix(ct, trace.ChunkV2ContentType):
		return st.decodeColumns(int(s.cfg.MaxChunkBytes))
	case bytes.Equal(head, []byte("LPPTRACE1\n")) || strings.HasPrefix(ct, "application/x-lpp-trace"):
		return st.decodeBinary()
	default:
		return st.decodeNDJSON()
	}
}

// decodeColumns slurps the body into the reusable chunk buffer and runs
// the v2 columnar decoder over it. maxEvents caps the RLE expansion at
// one event per allowed body byte — any denser chunk is refused, which
// bounds decoded memory by the same knob (MaxChunkBytes) that already
// bounds the wire size.
func (st *decodeState) decodeColumns(maxEvents int) (*trace.Columns, error) {
	buf := st.body[:0]
	if cap(buf) == 0 {
		buf = make([]byte, 0, 64<<10)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := st.br.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			st.body = buf
			return nil, fmt.Errorf("chunk v2: %w", err)
		}
	}
	st.body = buf
	if err := trace.DecodeChunkV2(buf, &st.cols, maxEvents); err != nil {
		return nil, err // the codec's errors carry the "chunk v2" context
	}
	return &st.cols, nil
}

func (st *decodeState) decodeBinary() (*trace.Columns, error) {
	if st.tr == nil {
		st.tr = trace.NewReader(nil)
	}
	// st.br is a 64KiB *bufio.Reader, so Reset adopts it directly
	// instead of stacking a second buffer on top.
	st.tr.Reset(st.br)
	for {
		ev, err := st.tr.Next()
		if err == io.EOF {
			return &st.cols, nil
		}
		if err != nil {
			return nil, fmt.Errorf("binary chunk: %w", err)
		}
		st.cols.AppendEvent(ev)
	}
}

func (st *decodeState) decodeNDJSON() (*trace.Columns, error) {
	sc := bufio.NewScanner(st.br)
	sc.Buffer(st.buf, 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		ev, ok := parseWireEvent(text)
		if !ok {
			// Anything beyond the canonical encoding — string escapes,
			// non-integer numbers, unknown keys — goes through
			// encoding/json, which also owns all error reporting, so
			// unusual-but-valid lines decode identically and invalid
			// ones fail with the messages clients already match on.
			var we wireEvent
			if err := json.Unmarshal(text, &we); err != nil {
				return nil, fmt.Errorf("ndjson line %d: %w", line, err)
			}
			switch we.Kind {
			case "access":
				ev = trace.Event{Kind: trace.EventAccess, Addr: trace.Addr(we.Addr)}
			case "block":
				ev = trace.Event{Kind: trace.EventBlock, Block: trace.BlockID(we.Block), Instrs: we.Instrs}
			default:
				return nil, fmt.Errorf("ndjson line %d: unknown kind %q", line, we.Kind)
			}
		}
		st.cols.AppendEvent(ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ndjson: %w", err)
	}
	return &st.cols, nil
}

// lineParser is a minimal cursor over one NDJSON line.
type lineParser struct {
	b []byte
	i int
}

func (p *lineParser) ws() {
	for p.i < len(p.b) && (p.b[p.i] == ' ' || p.b[p.i] == '\t') {
		p.i++
	}
}

func (p *lineParser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str consumes a JSON string without escapes and returns its contents.
func (p *lineParser) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.i
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case '"':
			s := p.b[start:p.i]
			p.i++
			return s, true
		case '\\':
			return nil, false
		}
		p.i++
	}
	return nil, false
}

// uint consumes a non-negative decimal integer.
func (p *lineParser) uint() (uint64, bool) {
	start := p.i
	var v uint64
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		d := uint64(p.b[p.i] - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, false
		}
		v = v*10 + d
		p.i++
	}
	if p.i == start {
		return 0, false
	}
	// A trailing fraction or exponent means this is not a plain
	// integer; defer to encoding/json.
	if p.i < len(p.b) && (p.b[p.i] == '.' || p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		return 0, false
	}
	return v, true
}

// parseWireEvent decodes the canonical one-line JSON encoding of a wire
// event — unescaped keys and string values, plain unsigned integers —
// without allocating. It reports !ok for anything else (including all
// malformed input) so the caller falls back to encoding/json; the fast
// path therefore never needs to produce errors of its own.
func parseWireEvent(b []byte) (trace.Event, bool) {
	p := lineParser{b: b}
	var kind []byte
	var addr, block, instrs uint64
	p.ws()
	if !p.eat('{') {
		return trace.Event{}, false
	}
	p.ws()
	if p.eat('}') {
		return trace.Event{}, false // no kind: let the slow path reject it
	}
	for {
		key, ok := p.str()
		if !ok {
			return trace.Event{}, false
		}
		p.ws()
		if !p.eat(':') {
			return trace.Event{}, false
		}
		p.ws()
		switch string(key) {
		case "kind":
			if kind, ok = p.str(); !ok {
				return trace.Event{}, false
			}
		case "addr":
			if addr, ok = p.uint(); !ok {
				return trace.Event{}, false
			}
		case "block":
			if block, ok = p.uint(); !ok {
				return trace.Event{}, false
			}
		case "instrs":
			if instrs, ok = p.uint(); !ok {
				return trace.Event{}, false
			}
		default:
			return trace.Event{}, false
		}
		p.ws()
		if p.eat(',') {
			p.ws()
			continue
		}
		if p.eat('}') {
			break
		}
		return trace.Event{}, false
	}
	p.ws()
	if p.i != len(p.b) {
		return trace.Event{}, false
	}
	switch string(kind) {
	case "access":
		return trace.Event{Kind: trace.EventAccess, Addr: trace.Addr(addr)}, true
	case "block":
		if instrs > math.MaxInt {
			return trace.Event{}, false
		}
		return trace.Event{Kind: trace.EventBlock, Block: trace.BlockID(block), Instrs: int(instrs)}, true
	}
	return trace.Event{}, false
}
