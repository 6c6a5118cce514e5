package core

import (
	"lpp/internal/cache"
	"lpp/internal/marker"
	"lpp/internal/trace"
)

// markedBatch is one hand-off of the marked run from the program's
// goroutine to the simulator's: a run of accesses and the marker
// firings among them, in stream order.
type markedBatch struct {
	addrs []trace.Addr
	marks []markerFiring
}

// markerFiring is one execution of a marked block. It fired before
// addrs[at] of its batch, at the run's logical times accesses and
// instrs.
type markerFiring struct {
	at       int
	phase    marker.PhaseID
	accesses int64
	instrs   int64
}

// batchAccesses is the number of accesses one batch carries: large
// enough to amortize channel synchronization against millions of
// accesses, small enough that the simulator starts long before the
// program finishes.
const batchAccesses = 1 << 13

// batchMarks bounds the marker firings one batch carries, so a run
// that fires markers without touching data still hands off in bounded
// batches.
const batchMarks = 1 << 10

// pipeDepth is how many batches the channel buffers between the
// program and the simulator: 64K accesses of slack, so neither side
// stalls on the other's momentary slowdowns. The free list holds
// pipeDepth+2, every batch that can be in circulation (those in the
// channel, the one being consumed and the one being filled), so the
// simulator never drops a used batch and the program allocates at most
// that many.
const pipeDepth = 8

// markedTap is the producer half of runMarked: a trace.Instrumenter
// that does what marker.Instrumented does on the program's goroutine —
// count accesses and instructions, look each block up in the marker
// table — but batches the accesses and records each firing instead of
// simulating and calling back.
type markedTap struct {
	markers  map[trace.BlockID]marker.PhaseID
	cur      markedBatch
	ch, free chan markedBatch
	flushed  int64 // accesses handed off in earlier batches
	instrs   int64
}

// Block implements trace.Instrumenter.
func (p *markedTap) Block(id trace.BlockID, instrs int) {
	if ph, ok := p.markers[id]; ok {
		at := len(p.cur.addrs)
		p.cur.marks = append(p.cur.marks, markerFiring{at, ph, p.flushed + int64(at), p.instrs})
		if len(p.cur.marks) == batchMarks {
			p.flush()
		}
	}
	p.instrs += int64(instrs)
}

// Access implements trace.Instrumenter.
func (p *markedTap) Access(addr trace.Addr) {
	p.cur.addrs = append(p.cur.addrs, addr)
	if len(p.cur.addrs) == batchAccesses {
		p.flush()
	}
}

// flush hands the current batch to the simulator and continues in a
// recycled one.
func (p *markedTap) flush() {
	p.flushed += int64(len(p.cur.addrs))
	p.ch <- p.cur
	select {
	case p.cur = <-p.free:
	default:
		p.cur = markedBatch{addrs: make([]trace.Addr, 0, batchAccesses)}
	}
}

// runMarked executes prog with markers installed, feeding every access
// to sim and calling onMarker at each marker firing, with sim holding
// exactly the accesses before it — the observable behavior of running
// prog through marker.NewInstrumented(markers, sim, onMarker). It
// pipelines the two halves: the program runs on the caller's goroutine
// into a batching tap, and one goroutine replays each batch,
// simulating the accesses between firings with sim.AccessBatch and
// calling onMarker in between. So
// onMarker runs on that goroutine, strictly in order, and everything
// it touched is visible to the caller once runMarked returns; a panic
// in it resurfaces on the caller's. It returns the run's totals.
func runMarked(prog trace.Runner, markers map[trace.BlockID]marker.PhaseID, sim *cache.MultiAssoc, onMarker marker.Callback) (accesses, instrs int64) {
	tap := &markedTap{
		markers: markers,
		cur:     markedBatch{addrs: make([]trace.Addr, 0, batchAccesses)},
		ch:      make(chan markedBatch, pipeDepth),
		free:    make(chan markedBatch, pipeDepth+2),
	}
	done := make(chan struct{})
	var panicked any
	go func() {
		defer close(done)
		defer func() {
			if panicked = recover(); panicked != nil {
				for range tap.ch { // let the program run to its end
				}
			}
		}()
		for b := range tap.ch {
			at := 0
			for _, f := range b.marks {
				sim.AccessBatch(b.addrs[at:f.at])
				at = f.at
				onMarker(f.phase, f.accesses, f.instrs)
			}
			sim.AccessBatch(b.addrs[at:])
			b.addrs, b.marks = b.addrs[:0], b.marks[:0]
			select {
			case tap.free <- b:
			default:
			}
		}
	}()
	prog.Run(tap)
	if len(tap.cur.addrs) > 0 || len(tap.cur.marks) > 0 {
		tap.flush()
	}
	close(tap.ch)
	<-done
	if panicked != nil {
		panic(panicked)
	}
	return tap.flushed, tap.instrs
}
