package server

// Engine durable-state plumbing: restoring a worker from its
// checkpoint + WAL suffix, writing checkpoints (and streaming them to
// the session's ring successor), and the LPPBUS1 framing that packs the detector
// and consumer-chain snapshots into one checkpoint image.

import (
	"encoding/binary"
	"errors"

	"lpp/internal/codec"
	"lpp/internal/online"
	"lpp/internal/replica"
)

// restore rebuilds the detector from durable state: load the
// checkpoint, then replay the WAL suffix exactly as the chunks were
// first processed (pressure 0, same order), so the recovered detector
// emits the same boundaries an uninterrupted run would have.
func (w *worker) restore() {
	st, err := w.log.Load()
	if err != nil {
		w.s.m.walErrors.Add(1)
		w.poison()
		return
	}
	if st.Snapshot == nil && len(st.Entries) == 0 && st.Seq == 0 {
		return // fresh session
	}
	if st.Snapshot != nil {
		detSnap, chainSnap, framed, err := splitSnapshot(st.Snapshot)
		if err != nil {
			w.s.m.walErrors.Add(1)
			w.poison()
			return
		}
		// A checkpoint written with a consumer chain must be restored
		// with one (and vice versa): anything else would silently drop
		// or skip adaptation state, forking decisions after recovery.
		if framed != (w.chain != nil) {
			w.s.m.walErrors.Add(1)
			w.poison()
			return
		}
		nd, err := online.NewDetectorFromSnapshot(w.cfg, detSnap)
		if err != nil {
			w.s.m.walErrors.Add(1)
			w.poison()
			return
		}
		if w.chain != nil {
			if err := w.chain.Restore(chainSnap); err != nil {
				w.s.m.walErrors.Add(1)
				w.poison()
				return
			}
			// Deliveries restored from the checkpoint were counted by
			// the process that made them; only count this process's.
			w.consBase = w.chain.Stats()
		}
		w.det = nd
		dst := nd.Stats()
		w.baseSuppressed = dst.SuppressedBoundaries
		w.baseRestarts = dst.GrammarRestarts
		w.baseTruncated = dst.TruncatedPages
	}
	w.lastSeq = st.Seq
	w.cached = st.Response
	ok := w.safe(func() {
		for _, e := range st.Entries {
			w.pending = nil
			w.det.SetPressure(0)
			w.det.AccessBatch(e.Events)
			w.lastSeq = e.Seq
			w.cached = encodeEvents(w.pending)
		}
	})
	w.pending = nil
	w.flushConsumerStats()
	if ok {
		w.updateStats()
		w.s.m.recovered.Add(1)
	}
}

// persist snapshots the detector (and chain) at lastSeq and, with
// durability, writes the image as the session's checkpoint. It reports
// false if the snapshot panicked (the worker is then quarantined) or
// the checkpoint write failed.
func (w *worker) persist() (snap []byte, ok bool) {
	if !w.safe(func() {
		snap = w.det.Snapshot()
		if w.chain != nil {
			snap = frameSnapshot(snap, w.chain.Snapshot())
		}
	}) {
		return nil, false
	}
	if w.log != nil {
		if err := w.log.Checkpoint(w.lastSeq, snap, w.cached); err != nil {
			w.s.m.walErrors.Add(1)
			return nil, false
		}
		w.sinceCkpt = 0
		w.s.m.checkpoints.Add(1)
	}
	return snap, true
}

// checkpoint persists the session and streams the image to its ring
// successor.
func (w *worker) checkpoint() {
	snap, ok := w.persist()
	if !ok {
		return
	}
	// Replicate only what disk accepted: the successor must never hold
	// an image the owner could not persist. snap and w.cached are fresh
	// allocations owned by this checkpoint, safe to hand off.
	if rep := w.s.replicatorFor(w.sess.id); rep != nil {
		rep.EnqueueCheckpoint(replica.Checkpoint{
			Session:  w.sess.id,
			Seq:      w.lastSeq,
			Snapshot: snap,
			Response: w.cached,
		})
	}
}

// busMagic frames a combined detector+chain checkpoint image. Legacy
// checkpoints (no consumer chain) remain raw detector snapshots, which
// start with "LPPSNAP" — the two are distinguishable by prefix.
const busMagic = "LPPBUS1"

// frameSnapshot combines a detector snapshot and a chain snapshot into
// one checkpoint image.
func frameSnapshot(det, chain []byte) []byte {
	e := codec.Enc{Buf: make([]byte, 0, len(busMagic)+len(det)+len(chain)+2*binary.MaxVarintLen64)}
	e.Buf = append(e.Buf, busMagic...)
	e.Blob(det)
	e.Blob(chain)
	return e.Buf
}

// errBusImage marks a combined snapshot whose framing fails to decode.
var errBusImage = errors.New("corrupt combined snapshot")

// splitSnapshot separates a checkpoint image into its detector and
// chain parts. A raw (legacy, chain-less) detector snapshot returns
// framed=false with the input as the detector part.
func splitSnapshot(data []byte) (det, chain []byte, framed bool, err error) {
	if len(data) < len(busMagic) || string(data[:len(busMagic)]) != busMagic {
		return data, nil, false, nil
	}
	d := codec.NewDec(data[len(busMagic):], errBusImage)
	det, chain = d.Blob(), d.Blob()
	if err := d.Done(); err != nil {
		return nil, nil, true, err
	}
	return det, chain, true, nil
}
