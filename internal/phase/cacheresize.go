package phase

import (
	"fmt"

	"lpp/internal/adapt"
	"lpp/internal/codec"
)

// DefaultResizeBound is the paper's 5% miss-increase budget for
// adaptive cache resizing.
const DefaultResizeBound = 0.05

// CacheResizer wraps adapt.Resizer, the learn-then-reuse policy of the
// offline resizing experiment, around the event bus: each boundary
// ending an identified phase is one window, its length the access
// delta since the previous boundary and its locality the event's
// signature. The unmarked prelude (Phase < 0) and zero-length windows
// are skipped.
type CacheResizer struct {
	r        *adapt.Resizer
	prevTime int64
}

// NewCacheResizer returns a resizer that accepts at most bound
// relative miss increase over the full 256KB cache.
func NewCacheResizer(bound float64) *CacheResizer {
	return &CacheResizer{r: adapt.NewResizer(bound)}
}

// Name implements Consumer.
func (c *CacheResizer) Name() string { return "cacheresize" }

// Consume implements Consumer.
func (c *CacheResizer) Consume(ev Event) error {
	if ev.Kind != BoundaryDetected {
		return nil
	}
	length := ev.Time - c.prevTime
	c.prevTime = ev.Time
	if ev.Phase >= 0 && length > 0 {
		c.r.Step(ev.Phase, length, ev.Locality)
	}
	return nil
}

// Result folds the consumed stream into the same summary shape as the
// offline resizing experiment.
func (c *CacheResizer) Result() adapt.Result { return c.r.Result() }

// Report implements Reporter.
func (c *CacheResizer) Report() string {
	r := c.Result()
	return fmt.Sprintf("bound=%.2f avg-size=%.0fKB explorations=%d miss-increase=%.4f",
		c.r.Bound(), r.AvgBytes/1024, r.Explorations, r.MissIncrease)
}

const resizeSnapVersion = 1

// Snapshot implements Consumer.
func (c *CacheResizer) Snapshot() []byte {
	var e codec.Enc
	e.Num(resizeSnapVersion)
	e.I64(c.prevTime)
	c.r.Encode(&e)
	return e.Buf
}

// Restore implements Consumer.
func (c *CacheResizer) Restore(data []byte) error {
	d := codec.NewDec(data, ErrSnapshotCorrupt)
	if v := d.Num(); d.Err() == nil && v != resizeSnapVersion {
		return fmt.Errorf("phase: unsupported cacheresize snapshot version %d", v)
	}
	prevTime := d.I64()
	r := c.r.Decode(d)
	if err := d.Done(); err != nil {
		return err
	}
	c.prevTime, c.r = prevTime, r
	return nil
}
