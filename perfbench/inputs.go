package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strconv"

	"lpp/internal/phase"
	"lpp/internal/trace"
	"lpp/internal/workload"
)

// Wire formats a stream chunk can be sent in, and their Content-Types.
const (
	formatV2     = "v2"
	formatV1     = "v1"
	formatNDJSON = "ndjson"
)

var contentTypes = map[string]string{
	formatV2:     trace.ChunkV2ContentType,
	formatV1:     "application/x-lpp-trace",
	formatNDJSON: "application/x-ndjson",
}

// addrOffset is the seed's shift of every generated address. It is a
// multiple of 2^32, so cache-set mapping, 64KB page boundaries and
// every address difference are unchanged: each seed gives different
// inputs with the same phase structure, and the quality metrics stay
// comparable across seeds.
func addrOffset(seed int64) trace.Addr {
	return trace.Addr(uint64(seed)%4096+1) << 32
}

// shifted forwards a program's instrumentation with every address moved
// by off.
type shifted struct {
	ins trace.Instrumenter
	off trace.Addr
}

func (s shifted) Block(id trace.BlockID, instrs int) { s.ins.Block(id, instrs) }
func (s shifted) Access(addr trace.Addr)             { s.ins.Access(addr + s.off) }

// shiftRunner runs prog with its addresses moved by off.
func shiftRunner(prog trace.Runner, off trace.Addr) trace.Runner {
	return trace.RunnerFunc(func(ins trace.Instrumenter) { prog.Run(shifted{ins, off}) })
}

// cursor is a position in a recorded trace: the next block and the next
// access to emit.
type cursor struct{ block, access int }

// program is one generated trace, cut into the wire chunks a client
// streams.
type program struct {
	name   string
	rec    trace.Recorded // recorded with addresses already shifted
	marks  []int64        // the kernel's manual phase markers, in accesses
	events int

	cursors []cursor // chunk i spans cursors[i] up to cursors[i+1]
	chunks  [][]byte
	formats []string
	// wireBytes is the total encoded size of the chunks.
	wireBytes int
}

// genProgram runs one kernel and records its trace, addresses shifted.
func genProgram(spec workload.Spec, p workload.Params, off trace.Addr) *program {
	rec := trace.NewRecorder(1<<20, 1<<14)
	prog := spec.Make(p)
	shiftRunner(prog, off).Run(rec)
	return &program{
		name:   spec.Name,
		rec:    rec.T,
		marks:  prog.ManualMarks(),
		events: len(rec.T.Accesses) + len(rec.T.Blocks),
	}
}

// next advances c past one event and reports whether it was a block.
// Events come in program order: a block precedes the accesses recorded
// after it.
func (p *program) next(c *cursor) (isBlock, ok bool) {
	if c.block < len(p.rec.Blocks) && int(p.rec.Blocks[c.block].AccessIndex) <= c.access {
		c.block++
		return true, true
	}
	if c.access < len(p.rec.Accesses) {
		c.access++
		return false, true
	}
	return false, false
}

// chunkEvents appends chunk i's events to dst.
func (p *program) chunkEvents(dst []trace.Event, i int) []trace.Event {
	c, end := p.cursors[i], p.cursors[i+1]
	for c != end {
		b, a := c.block, c.access
		isBlock, _ := p.next(&c)
		if isBlock {
			ev := p.rec.Blocks[b]
			dst = append(dst, trace.Event{Kind: trace.EventBlock, Block: ev.ID, Instrs: int(ev.Instrs)})
		} else {
			dst = append(dst, trace.Event{Kind: trace.EventAccess, Addr: p.rec.Accesses[a]})
		}
	}
	return dst
}

// chunkLen returns the number of events in chunk i.
func (p *program) chunkLen(i int) int {
	c, end := p.cursors[i], p.cursors[i+1]
	return end.block - c.block + end.access - c.access
}

// encode cuts the trace into chunks of chunkLen events and encodes
// chunk i in formats[(i+rot)%len(formats)].
func (p *program) encode(chunkLen int, formats []string, rot int) error {
	c := cursor{}
	p.cursors = append(p.cursors[:0], c)
	for {
		n := 0
		for n < chunkLen {
			if _, ok := p.next(&c); !ok {
				break
			}
			n++
		}
		if n == 0 {
			break
		}
		p.cursors = append(p.cursors, c)
	}
	nChunks := len(p.cursors) - 1
	p.chunks = make([][]byte, nChunks)
	p.formats = make([]string, nChunks)
	p.wireBytes = 0
	scratch := make([]trace.Event, 0, chunkLen)
	for i := 0; i < nChunks; i++ {
		f := formats[(i+rot)%len(formats)]
		body, err := encodeChunk(f, p.chunkEvents(scratch[:0], i))
		if err != nil {
			return fmt.Errorf("%s chunk %d: %w", p.name, i+1, err)
		}
		p.chunks[i], p.formats[i] = body, f
		p.wireBytes += len(body)
	}
	return nil
}

// encodeChunk renders events in one wire format.
func encodeChunk(format string, events []trace.Event) ([]byte, error) {
	switch format {
	case formatV2:
		return trace.AppendChunkV2(nil, events)
	case formatV1:
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		for _, ev := range events {
			ev.Feed(w)
		}
		if err := w.Flush(); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	case formatNDJSON:
		var b []byte
		for _, ev := range events {
			if ev.Kind == trace.EventBlock {
				b = append(b, `{"kind":"block","block":`...)
				b = strconv.AppendUint(b, uint64(ev.Block), 10)
				b = append(b, `,"instrs":`...)
				b = strconv.AppendInt(b, int64(ev.Instrs), 10)
			} else {
				b = append(b, `{"kind":"access","addr":`...)
				b = strconv.AppendUint(b, uint64(ev.Addr), 10)
			}
			b = append(b, "}\n"...)
		}
		return b, nil
	}
	return nil, fmt.Errorf("unknown chunk format %q", format)
}

// renderEvents is the service's NDJSON rendering of phase events: the
// bytes a chunk's 200 response carries.
func renderEvents(events []phase.Event) []byte {
	var b []byte
	for _, ev := range events {
		b = append(b, `{"kind":`...)
		b = strconv.AppendQuote(b, ev.Kind.String())
		b = append(b, `,"time":`...)
		b = strconv.AppendInt(b, ev.Time, 10)
		b = append(b, `,"instructions":`...)
		b = strconv.AppendInt(b, ev.Instructions, 10)
		b = append(b, `,"phase":`...)
		b = strconv.AppendInt(b, int64(ev.Phase), 10)
		b = append(b, "}\n"...)
	}
	return b
}

// hashBody fingerprints a response body.
func hashBody(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// recall returns how many of marks have a boundary within a tolerance
// of 2% of the trace's accesses, capped at half the median gap between
// marks.
func recall(marks, boundaries []int64, accesses int64) (matched int) {
	tol := accesses / 50
	if len(marks) > 1 {
		gaps := make([]float64, 0, len(marks)-1)
		for i := 1; i < len(marks); i++ {
			gaps = append(gaps, float64(marks[i]-marks[i-1]))
		}
		if g := int64(median(gaps)) / 2; g > 0 && g < tol {
			tol = g
		}
	}
	if tol < 1 {
		tol = 1
	}
	for _, m := range marks {
		for _, b := range boundaries {
			if b-m < tol && m-b < tol {
				matched++
				break
			}
		}
	}
	return matched
}
