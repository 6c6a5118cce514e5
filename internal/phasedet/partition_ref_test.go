package phasedet

// refPartition is a frozen copy of Partition as it was before it
// counted recurrences from a previous-occurrence index: a dense
// re-numbering of the IDs, a per-ID counter array, and a reset loop
// over the touched counters after every source node. Partition must
// return the same boundaries on every trace.
func refPartition(ids []int, cfg Config) []int {
	n := len(ids)
	if n == 0 {
		return nil
	}
	alpha := cfg.Alpha
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	span := cfg.MaxSpan
	if span <= 0 || span > n+1 {
		span = n + 1
	}

	// Dense re-numbering of data-sample IDs for O(1) counting.
	dense := make(map[int]int)
	seq := make([]int, n)
	for i, id := range ids {
		d, ok := dense[id]
		if !ok {
			d = len(dense)
			dense[id] = d
		}
		seq[i] = d
	}

	// Nodes 0..n-1 are trace elements; node n is the sink. dist[j]
	// is the least penalty of a path from the source to node j,
	// where arriving at node j means a phase boundary right before
	// element j. The source is "boundary before element 0" (dist[0]
	// via the virtual source edge).
	const inf = 1e18
	dist := make([]float64, n+1)
	prev := make([]int, n+1)
	for i := range dist {
		dist[i] = inf
		prev[i] = -1
	}

	counts := make([]int, len(dense))
	var touched []int

	// Source edges: source -> j covers segment [0, j). Weight
	// α·r(0..j-1) + 1.
	r := 0
	for j := 0; j <= n && j <= span; j++ {
		w := alpha*float64(r) + 1
		if w < dist[j] {
			dist[j] = w
			prev[j] = -1 // from source
		}
		if j < n {
			d := seq[j]
			if counts[d] > 0 {
				r++
			} else {
				touched = append(touched, d)
			}
			counts[d]++
		}
	}
	for _, d := range touched {
		counts[d] = 0
	}
	touched = touched[:0]

	// Edges i -> j (i < j ≤ n) cover segment [i, j): the phase that
	// starts at element i ends right before element j.
	for i := 0; i < n; i++ {
		if dist[i] >= inf {
			continue
		}
		r = 0
		limit := i + span
		if limit > n {
			limit = n
		}
		for j := i + 1; j <= limit; j++ {
			d := seq[j-1]
			if counts[d] > 0 {
				r++
			} else {
				touched = append(touched, d)
			}
			counts[d]++
			// Now [i, j) is accounted for.
			w := dist[i] + alpha*float64(r) + 1
			if w < dist[j] {
				dist[j] = w
				prev[j] = i
			}
		}
		for _, d := range touched {
			counts[d] = 0
		}
		touched = touched[:0]
	}

	// Walk back from the sink collecting boundaries.
	var bounds []int
	for v := prev[n]; v > 0; v = prev[v] {
		bounds = append(bounds, v)
	}
	// Reverse into ascending order.
	for l, r := 0, len(bounds)-1; l < r; l, r = l+1, r-1 {
		bounds[l], bounds[r] = bounds[r], bounds[l]
	}
	return bounds
}

// RefPartition exposes the frozen copy to the external Train-trace test.
var RefPartition = refPartition
