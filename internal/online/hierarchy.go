package online

import (
	"sort"

	"lpp/internal/phase"
	"lpp/internal/phasedet"
	"lpp/internal/predictor"
	"lpp/internal/regexphase"
	"lpp/internal/sequitur"
)

// flushBoundaries partitions the current window of filtered samples and
// emits the cuts that fall in the stable region. Offline partitioning
// sees the whole filtered trace at once; the streaming variant sees a
// sliding window, withholds cuts within BoundaryMargin of the leading
// edge (they can still move as context arrives), and keeps an overlap
// so a boundary near the junction of two windows is found by one of
// them. A final flush (end of stream) has full context, so no margin.
func (d *Detector) flushBoundaries(final bool) {
	if len(d.window) == 0 {
		return
	}
	// Decisions arrive in per-datum order but interleave across
	// datums; partitioning wants global time order.
	sort.Slice(d.window, func(i, j int) bool { return d.window[i].time < d.window[j].time })

	ids := make([]int, len(d.window))
	for i, s := range d.window {
		ids[i] = s.datum
	}
	cuts := phasedet.Partition(ids, phasedet.Config{Alpha: Alpha, MaxSpan: MaxSpan})

	stable := len(d.window) - BoundaryMargin
	if final {
		stable = len(d.window)
	}
	// A cut is only accepted when its segment holds a few samples:
	// partitioning a bounded window can place degenerate adjacent cuts
	// whose empty segments would each mint a spurious phase identity.
	const minSegSamples = 4

	retired := 0 // window elements already folded into a segment
	for _, c := range cuts {
		if c >= stable {
			break
		}
		t := d.window[c].time
		if t <= d.lastBoundary || c-retired < minSegSamples {
			// Overlap with a previous flush, or a degenerate segment.
			continue
		}
		if d.cfg.MinBoundaryGap > 0 && t-d.lastBoundary < d.cfg.MinBoundaryGap {
			// Unstable-boundary margin guard: too close to the last
			// accepted boundary to be a distinct phase change. The
			// samples stay in the open segment, so the next accepted
			// cut absorbs them instead of minting a sliver phase.
			d.suppressed++
			continue
		}
		for ; retired < c; retired++ {
			d.hier.retire(d.window[retired].page)
		}
		ph := d.hier.closeSegment()
		d.lastBoundary = t
		d.segStart = t
		d.boundaries++
		d.emit(phase.Event{Kind: phase.BoundaryDetected, Time: t, Instructions: d.instrs, Phase: ph})
		if next, ok := d.hier.predictNext(); ok {
			d.predictions++
			d.emit(phase.Event{Kind: phase.PhasePredicted, Time: t, Instructions: d.instrs, Phase: next})
		}
	}

	// Slide: drop everything already inside a closed segment, plus —
	// when no recent cut bounds the window — enough of the oldest
	// open-segment samples to guarantee progress. Dropped open-segment
	// samples still contribute their datum to the segment signature.
	keepFrom := retired
	if final {
		keepFrom = len(d.window)
	} else if min := len(d.window) - BoundaryWindow/2; keepFrom < min {
		keepFrom = min
	}
	for ; retired < keepFrom; retired++ {
		d.hier.retire(d.window[retired].page)
	}
	d.window = append(d.window[:0], d.window[keepFrom:]...)
}

// hierarchy tracks phase identity and the incremental SEQUITUR grammar
// over the emitted phase sequence.
//
// Offline, phase identity comes from marker selection over the complete
// block trace; a streaming detector cannot retain that trace, so it
// identifies recurring phases by their data instead: two segments are
// the same phase when the sets of 64KB pages they touch overlap (the
// paper's observation that each phase is marked by accesses to its own
// group of data). The phase-ID sequence feeds a SEQUITUR builder — the
// algorithm is already incremental — and at each boundary the grammar's
// hierarchy yields the next-phase automaton of Section 2.4 through a
// memo (see predictNext).
type hierarchy struct {
	cfg     Config
	builder *sequitur.Builder
	// memo caches hierarchy sub-expressions, Equivalent verdicts and
	// automata across boundaries (derived state: not in snapshots).
	memo *regexphase.Memo
	// grammarSize is refreshed at each boundary (gauge + restart cap).
	grammarSize int
	// tail holds the most recent phase IDs: the automaton's walk
	// context, and the replay seed when the grammar restarts.
	tail []int
	// known holds each phase's accumulated datum-set signature.
	known []map[int]struct{}
	// curSeg accumulates the datums of the still-open segment.
	curSeg map[int]struct{}
	// restarts counts grammar restarts from the tail (the MaxGrammar
	// graceful fallback); truncated counts pages dropped from the open
	// segment by the MaxSignature cap. Both feed lpp_detector_* metrics.
	restarts  int64
	truncated int64
}

func newHierarchy(cfg Config) *hierarchy {
	return &hierarchy{
		cfg:     cfg,
		builder: sequitur.NewBuilder(),
		memo:    newHierarchyMemo(cfg),
		curSeg:  make(map[int]struct{}),
	}
}

// newHierarchyMemo returns an empty hierarchy memo bounded in
// proportion to the grammar cap: 64 units (node children, DFA
// transition slots or verdicts) per grammar symbol. The units leave
// out map keys, expression boxing and DFA symbol indexes; measured on
// a stream that never repeats (uniformly random over MaxPhases = 64
// phases, 4,400 boundaries at the default cap, one grammar restart),
// the memo held at most 2.1 MB of heap. The Train workloads peak below
// 7,000 units.
func newHierarchyMemo(cfg Config) *regexphase.Memo {
	return regexphase.NewMemo(64 * cfg.MaxGrammar)
}

// retire folds one filtered sample's page (64KB identity granule) into
// the open segment's signature, dropping (and counting) pages past the
// MaxSignature cap so a never-recurring stream cannot grow the set
// without bound.
func (h *hierarchy) retire(page int) {
	if len(h.curSeg) >= h.cfg.MaxSignature {
		if _, ok := h.curSeg[page]; !ok {
			h.truncated++
			return
		}
	}
	h.curSeg[page] = struct{}{}
}

// closeSegment ends the open segment at a detected boundary: assigns it
// a phase ID by signature matching, feeds the ID to the grammar, and
// restarts the grammar from the tail if it outgrew its cap.
func (h *hierarchy) closeSegment() int {
	id := h.identify()
	h.record(id)
	h.curSeg = make(map[int]struct{})
	return id
}

// record appends a phase ID to the grammar and the tail, restarting
// the grammar from the tail when it outgrows MaxGrammar.
func (h *hierarchy) record(id int) {
	h.builder.Append(id)
	if len(h.tail) == h.cfg.PhaseTail {
		copy(h.tail, h.tail[1:])
		h.tail = h.tail[:len(h.tail)-1]
	}
	h.tail = append(h.tail, id)

	h.grammarSize = h.builder.Size()
	if h.grammarSize > h.cfg.MaxGrammar {
		h.restarts++
		h.builder = sequitur.NewBuilder()
		for _, p := range h.tail {
			h.builder.Append(p)
		}
		h.grammarSize = h.builder.Size()
	}
}

// identify matches the open segment's page set against known phases
// by Jaccard similarity. Signatures are frozen at creation: merging a
// matched segment's pages in would let boundary-straddling segments
// accrete neighboring phases' pages onto a signature until pure
// segments no longer clear the similarity bar against it.
func (h *hierarchy) identify() int {
	best, bestSim := -1, 0.0
	for id, sig := range h.known {
		inter := 0
		for d := range h.curSeg {
			if _, ok := sig[d]; ok {
				inter++
			}
		}
		union := len(sig) + len(h.curSeg) - inter
		if union == 0 {
			continue
		}
		sim := float64(inter) / float64(union)
		if sim > bestSim {
			best, bestSim = id, sim
		}
	}
	if best >= 0 && bestSim >= Similarity {
		return best
	}
	if len(h.known) < h.cfg.MaxPhases {
		sig := make(map[int]struct{}, len(h.curSeg))
		for d := range h.curSeg {
			sig[d] = struct{}{}
		}
		h.known = append(h.known, sig)
		return len(h.known) - 1
	}
	// At the identity cap: fold into the nearest phase (graceful
	// degradation; 0 when nothing is known, which cannot happen once
	// MaxPhases > 0 segments exist).
	if best < 0 {
		best = 0
	}
	return best
}

// largestSignature returns the page count of the biggest signature,
// the open segment included — the gauge the bounded-memory tests hold
// against MaxSignature.
func (h *hierarchy) largestSignature() int {
	max := len(h.curSeg)
	for _, sig := range h.known {
		if len(sig) > max {
			max = len(sig)
		}
	}
	return max
}

// predictNext turns the grammar into the next-phase automaton and
// walks the recent phase tail; a uniquely determined next transition is
// a prediction. The grammar gains a symbol at every boundary, but its
// hierarchy mostly recurs, so the conversion goes through the memo:
// rules whose structure is cached cost a lookup, Equivalent verdicts
// and DFAs are reused, and a hierarchy seen before reuses its
// minimized automaton outright. The memo is bounded (newHierarchyMemo)
// and not part of the snapshot: a restored session rebuilds it cold,
// with the same predictions.
func (h *hierarchy) predictNext() (int, bool) {
	np := predictor.NewNextPhaseDFA(h.memo.Automaton(h.builder.Grammar()))
	np.Walk(h.tail)
	return np.Predict()
}
