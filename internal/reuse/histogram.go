package reuse

// Histogram accumulates reuse distances and answers the question the
// paper uses to define locality precisely: "the miss rate across all
// cache sizes". For a fully-associative LRU cache of capacity C blocks,
// an access misses iff its reuse distance (in blocks) is >= C or cold,
// so the miss rate at every capacity falls out of the distance CDF.
type Histogram struct {
	// counts[d] for small d, kept exact up to exactLimit.
	counts []int64
	// overflow holds (distance, count) pairs in log2 buckets above
	// exactLimit: bucket b covers [1<<b, 1<<(b+1)).
	overflow [64]int64
	cold     int64
	total    int64
}

const exactLimit = 1 << 14 // exact counts up to 16K-block distances

// NewHistogram returns an empty Histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]int64, exactLimit)}
}

// Add records one reuse distance (use Infinite for a cold access).
func (h *Histogram) Add(d int64) {
	h.total++
	if d == Infinite {
		h.cold++
		return
	}
	if d < exactLimit {
		h.counts[d]++
		return
	}
	h.overflow[log2(uint64(d))]++
}

// Total returns the number of recorded accesses, including cold ones.
func (h *Histogram) Total() int64 { return h.total }

// Cold returns the number of cold (first-reference) accesses.
func (h *Histogram) Cold() int64 { return h.cold }

// MissRate returns the fully-associative LRU miss rate for a cache of
// capacity blocks: the fraction of accesses with distance >= capacity,
// counting cold accesses as misses. Distances in overflow buckets are
// attributed conservatively (a bucket straddling the capacity counts as
// missing), which only matters for capacities above 16K blocks.
func (h *Histogram) MissRate(capacity int64) float64 {
	if h.total == 0 {
		return 0
	}
	if capacity < 0 {
		// A cache that holds nothing misses everything; a negative
		// capacity must not index the count table.
		capacity = 0
	}
	misses := h.cold
	if capacity < exactLimit {
		for d := capacity; d < int64(len(h.counts)); d++ {
			misses += h.counts[d]
		}
		for _, c := range h.overflow {
			misses += c
		}
	} else {
		for b := log2(uint64(capacity)); b < 64; b++ {
			misses += h.overflow[b]
		}
	}
	return float64(misses) / float64(h.total)
}

func log2(x uint64) int {
	n := 0
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}
