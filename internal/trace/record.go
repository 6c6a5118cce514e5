package trace

// BlockEvent is one basic-block execution in a recorded trace.
type BlockEvent struct {
	ID BlockID
	// Instrs is the dynamic instruction count of this execution.
	Instrs int32
	// AccessIndex is the number of data accesses that preceded this
	// block execution; it ties the block trace to logical time.
	AccessIndex int64
	// InstrIndex is the number of dynamic instructions that preceded
	// this block execution.
	InstrIndex int64
}

// Recorded is a complete training-run trace kept in memory: the data
// access stream plus the basic-block stream, cross-indexed by logical
// time. Detection-run traces in this repository are a few million
// accesses, so an in-memory representation is deliberate — it is what
// lets the off-line analysis "zoom in and zoom out" over the trace.
type Recorded struct {
	Accesses []Addr
	Blocks   []BlockEvent
	// Instructions is the total dynamic instruction count.
	Instructions int64
}

// Recorder is an Instrumenter that captures the full trace of a run.
type Recorder struct {
	T Recorded
}

// NewRecorder returns a Recorder with capacity hints for the expected
// number of accesses and block executions. Zero hints are fine.
func NewRecorder(accessHint, blockHint int) *Recorder {
	return &Recorder{T: Recorded{
		Accesses: make([]Addr, 0, accessHint),
		Blocks:   make([]BlockEvent, 0, blockHint),
	}}
}

// Block implements Instrumenter.
func (r *Recorder) Block(id BlockID, instrs int) {
	r.T.Blocks = append(r.T.Blocks, BlockEvent{
		ID:          id,
		Instrs:      int32(instrs),
		AccessIndex: int64(len(r.T.Accesses)),
		InstrIndex:  r.T.Instructions,
	})
	r.T.Instructions += int64(instrs)
}

// Access implements Instrumenter.
func (r *Recorder) Access(addr Addr) {
	r.T.Accesses = append(r.T.Accesses, addr)
}

// Replay feeds a recorded trace back through an Instrumenter exactly as
// it was captured: each block event after the accesses that preceded
// it (up to its AccessIndex), and the accesses after the last block at
// the end.
func (t *Recorded) Replay(ins Instrumenter) {
	next := 0 // next access index to emit
	for _, b := range t.Blocks {
		for ; next < int(b.AccessIndex); next++ {
			ins.Access(t.Accesses[next])
		}
		ins.Block(b.ID, int(b.Instrs))
	}
	for ; next < len(t.Accesses); next++ {
		ins.Access(t.Accesses[next])
	}
}

// Events flattens a recorded trace into the event stream Replay feeds
// an Instrumenter, in the same order.
func (t *Recorded) Events() []Event {
	out := make(eventSink, 0, len(t.Accesses)+len(t.Blocks))
	t.Replay(&out)
	return out
}

// eventSink is an Instrumenter that keeps what it is fed as Events.
type eventSink []Event

func (s *eventSink) Block(id BlockID, instrs int) {
	*s = append(*s, Event{Kind: EventBlock, Block: id, Instrs: instrs})
}

func (s *eventSink) Access(addr Addr) { *s = append(*s, Event{Kind: EventAccess, Addr: addr}) }

// BlockFrequency returns, for every block ID that appears in the block
// trace, the number of times it executed.
func (t *Recorded) BlockFrequency() map[BlockID]int {
	freq := make(map[BlockID]int)
	for _, b := range t.Blocks {
		freq[b.ID]++
	}
	return freq
}
