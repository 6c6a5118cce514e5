package phase

import (
	"fmt"

	"lpp/internal/adapt"
	"lpp/internal/cache"
	"lpp/internal/codec"
)

// DefaultResizeBound is the paper's 5% miss-increase budget for
// adaptive cache resizing.
const DefaultResizeBound = 0.05

// resizeBytesPerAssoc is one associativity step in bytes (32KB), the
// same unit adapt's offline scoring uses.
const resizeBytesPerAssoc = cache.DefaultSets << cache.DefaultBlockBits

// CacheResizer replays adapt.GroupedMethod's learn-then-reuse
// discipline one event at a time: the first two executions of each
// phase are exploration trials (full size, then half size) while the
// phase's best size is learned; every later execution of that phase
// runs at the learned size. Each boundary ending an identified phase
// is one window, its length the access delta since the previous
// boundary and its locality the event's signature.
type CacheResizer struct {
	bound float64

	groups map[int]*resizeState

	prevTime int64

	explorations int64
	bytesSum     float64
	lenSum       float64
	misses       float64
	fullMisses   float64
}

type resizeState struct {
	seen    int64
	learned int64
}

// NewCacheResizer returns a resizer that accepts at most bound
// relative miss increase over the full 256KB cache.
func NewCacheResizer(bound float64) *CacheResizer {
	return &CacheResizer{bound: bound, groups: make(map[int]*resizeState)}
}

// Name implements Consumer.
func (c *CacheResizer) Name() string { return "cacheresize" }

// Consume implements Consumer.
func (c *CacheResizer) Consume(ev Event) error {
	if ev.Kind != BoundaryDetected {
		return nil
	}
	length := float64(ev.Time - c.prevTime)
	c.prevTime = ev.Time
	if ev.Phase < 0 || length <= 0 {
		return nil
	}
	g := c.groups[ev.Phase]
	if g == nil {
		g = &resizeState{}
		c.groups[ev.Phase] = g
		c.explorations++
	}
	var assigned int
	explore := false
	switch g.seen {
	case 0:
		assigned = cache.MaxAssoc
		explore = true
	case 1:
		assigned = cache.MaxAssoc / 2
		explore = true
	default:
		assigned = int(g.learned)
	}
	if explore {
		if b := adapt.BestAssoc(ev.Locality, c.bound); int64(b) > g.learned {
			g.learned = int64(b)
		}
		g.seen++
	}
	c.bytesSum += float64(assigned*resizeBytesPerAssoc) * length
	c.lenSum += length
	if !explore {
		c.misses += ev.Locality.MissAt(assigned) * length
		c.fullMisses += ev.Locality.MissAt(cache.MaxAssoc) * length
	}
	return nil
}

// Result folds the consumed stream into the same summary shape as the
// offline resizing experiment.
func (c *CacheResizer) Result() adapt.Result {
	r := adapt.Result{Explorations: int(c.explorations)}
	if c.lenSum > 0 {
		r.AvgBytes = c.bytesSum / c.lenSum
	}
	if c.fullMisses > 0 {
		r.MissIncrease = c.misses/c.fullMisses - 1
	}
	return r
}

// Report implements Reporter.
func (c *CacheResizer) Report() string {
	r := c.Result()
	return fmt.Sprintf("bound=%.2f avg-size=%.0fKB explorations=%d miss-increase=%.4f",
		c.bound, r.AvgBytes/1024, r.Explorations, r.MissIncrease)
}

const resizeSnapVersion = 1

// Snapshot implements Consumer.
func (c *CacheResizer) Snapshot() []byte {
	var e codec.Enc
	e.Num(resizeSnapVersion)
	e.I64(c.prevTime)
	e.I64(c.explorations)
	e.F64(c.bytesSum)
	e.F64(c.lenSum)
	e.F64(c.misses)
	e.F64(c.fullMisses)
	e.Num(len(c.groups))
	for _, ph := range codec.SortedKeys(c.groups) {
		g := c.groups[ph]
		e.Num(ph)
		e.I64(g.seen)
		e.I64(g.learned)
	}
	return e.Buf
}

// Restore implements Consumer.
func (c *CacheResizer) Restore(data []byte) error {
	d := codec.NewDec(data, ErrSnapshotCorrupt)
	if v := d.Num(); d.Err() == nil && v != resizeSnapVersion {
		return fmt.Errorf("phase: unsupported cacheresize snapshot version %d", v)
	}
	prevTime := d.I64()
	explorations := d.I64()
	bytesSum := d.F64()
	lenSum := d.F64()
	misses := d.F64()
	fullMisses := d.F64()
	n := d.Length(3)
	groups := make(map[int]*resizeState, n)
	for i, ph := 0, 0; i < n && d.Err() == nil; i++ {
		ph = d.Key(i, ph)
		groups[ph] = &resizeState{seen: d.I64(), learned: d.I64()}
	}
	if err := d.Done(); err != nil {
		return err
	}
	c.prevTime = prevTime
	c.explorations = explorations
	c.bytesSum, c.lenSum = bytesSum, lenSum
	c.misses, c.fullMisses = misses, fullMisses
	c.groups = groups
	return nil
}
