package phase

import (
	"errors"
	"fmt"
	"strings"

	"lpp/internal/codec"
)

// ErrSnapshotCorrupt reports a consumer or chain snapshot that fails
// structural validation; it is never partially applied.
var ErrSnapshotCorrupt = errors.New("phase: snapshot corrupt")

// Chain fans one event stream out to an ordered list of consumers with
// per-consumer error isolation: a consumer that returns an error or
// panics is counted against (and only against) itself, and every other
// consumer still sees the event. The chain is the unit the server
// snapshots: its image embeds each consumer's state plus the delivery
// counters, so a recovered session resumes with exactly the adaptation
// state an uninterrupted run would have.
//
// Chain itself implements Consumer, so chains nest anywhere a single
// consumer is accepted (core.PredictAllWith takes one).
type Chain struct {
	consumers []Consumer
	stats     []ConsumerStats
}

// ConsumerStats counts one consumer's deliveries.
type ConsumerStats struct {
	Name     string
	Consumed int64
	Errors   int64
}

// NewChain composes consumers in delivery order.
func NewChain(consumers ...Consumer) *Chain {
	c := &Chain{consumers: consumers, stats: make([]ConsumerStats, len(consumers))}
	for i, cons := range consumers {
		c.stats[i].Name = cons.Name()
	}
	return c
}

// Name implements Consumer.
func (c *Chain) Name() string { return "chain" }

// Len returns the number of consumers in the chain.
func (c *Chain) Len() int { return len(c.consumers) }

// Consumers returns the chained consumers in delivery order.
func (c *Chain) Consumers() []Consumer { return c.consumers }

// Stats returns a copy of the per-consumer delivery counters.
func (c *Chain) Stats() []ConsumerStats {
	out := make([]ConsumerStats, len(c.stats))
	copy(out, c.stats)
	return out
}

// Consume delivers ev to every consumer in order. It never returns an
// error: failures are isolated per consumer and recorded in Stats.
func (c *Chain) Consume(ev Event) error {
	for i, cons := range c.consumers {
		c.stats[i].Consumed++
		if err := safeConsume(cons, ev); err != nil {
			c.stats[i].Errors++
		}
	}
	return nil
}

// safeConsume shields the chain (and the session worker above it) from
// a panicking consumer: adaptation policies are pluggable, and one
// broken policy must not take down detection or its peers.
func safeConsume(cons Consumer, ev Event) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("phase: consumer %s panicked: %v", cons.Name(), r)
		}
	}()
	return cons.Consume(ev)
}

// Chain snapshot format, CRC-sealed like the detector's:
//
//	"LPPCHN" | version byte | consumer count | per consumer:
//	name | consumed | errors | state bytes | ... | CRC32 (4B LE)
const (
	chainMagic   = "LPPCHN"
	chainVersion = 1
)

// Snapshot serializes every consumer's state plus the delivery
// counters. Deterministic: the same chain state always yields the same
// bytes.
func (c *Chain) Snapshot() []byte {
	e := codec.Enc{Buf: append([]byte(chainMagic), chainVersion)}
	e.Num(len(c.consumers))
	for i, cons := range c.consumers {
		e.Str(c.stats[i].Name)
		e.I64(c.stats[i].Consumed)
		e.I64(c.stats[i].Errors)
		e.Bytes(cons.Snapshot())
	}
	return codec.Seal(e.Buf)
}

// Restore replaces the chain's state with a decoded snapshot. The
// receiver must be composed of the same consumers, by name and in the
// same order, as the chain that produced the snapshot; anything else
// is refused, because silently dropping a consumer's recovered state
// would fork adaptation decisions after recovery.
func (c *Chain) Restore(data []byte) error {
	header := len(chainMagic) + 1
	if len(data) < header+4 {
		return fmt.Errorf("%w: %d bytes is too short", ErrSnapshotCorrupt, len(data))
	}
	if string(data[:len(chainMagic)]) != chainMagic {
		return fmt.Errorf("%w: bad magic", ErrSnapshotCorrupt)
	}
	if v := data[len(chainMagic)]; v != chainVersion {
		return fmt.Errorf("phase: unsupported chain snapshot version %d", v)
	}
	body, ok := codec.Unseal(data)
	if !ok {
		return fmt.Errorf("%w: checksum mismatch", ErrSnapshotCorrupt)
	}
	d := codec.NewDec(body[header:], ErrSnapshotCorrupt)
	n := d.Num()
	if d.Err() == nil && n != len(c.consumers) {
		return fmt.Errorf("phase: snapshot has %d consumers, chain has %d", n, len(c.consumers))
	}
	stats := make([]ConsumerStats, len(c.consumers))
	states := make([][]byte, len(c.consumers))
	for i := 0; i < len(c.consumers) && d.Err() == nil; i++ {
		name := d.Str()
		if d.Err() == nil && name != c.stats[i].Name {
			return fmt.Errorf("phase: snapshot consumer %d is %q, chain has %q", i, name, c.stats[i].Name)
		}
		stats[i] = ConsumerStats{Name: name, Consumed: d.I64(), Errors: d.I64()}
		states[i] = d.Bytes()
	}
	if err := d.Done(); err != nil {
		return err
	}
	// Each consumer's Restore is atomic, but a failure here can leave
	// earlier consumers already restored — the caller must discard the
	// chain on error rather than keep using it.
	for i, cons := range c.consumers {
		if err := cons.Restore(states[i]); err != nil {
			return fmt.Errorf("phase: restore consumer %s: %w", cons.Name(), err)
		}
	}
	c.stats = stats
	return nil
}

// Report summarizes every reporting consumer, one line each.
func (c *Chain) Report() string {
	var b strings.Builder
	for i, cons := range c.consumers {
		if r, ok := cons.(Reporter); ok {
			fmt.Fprintf(&b, "%-11s %s", c.stats[i].Name, r.Report())
			if c.stats[i].Errors > 0 {
				fmt.Fprintf(&b, " (%d errors)", c.stats[i].Errors)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
