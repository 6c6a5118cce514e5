// Package phasedet implements the optimal phase partitioning of
// Section 2.2.3. The wavelet-filtered sample trace consists mainly of
// accesses to different data samples clustered at phase boundaries; a
// good partition therefore (a) includes accesses to as many data
// samples as possible per phase and (b) avoids repeating a data sample
// within a phase. The filtered trace becomes a DAG — one node per
// remaining access plus a source and a sink — where the edge from a to
// b carries weight w = α·r + 1, r being the number of data-sample
// recurrences strictly between a and b. The shortest source→sink path
// is the minimum-penalty partition; each interior node on the path is
// a phase boundary.
package phasedet

// DefaultAlpha is the recurrence penalty the paper settles on after
// observing that partitions are stable for α between 0.2 and 0.8.
const DefaultAlpha = 0.5

// Config controls the partitioner.
type Config struct {
	// Alpha is the recurrence penalty factor (0 ≤ α ≤ 1). 1 forbids
	// any reuse inside a phase; 0 produces a single phase.
	Alpha float64
	// MaxSpan bounds the number of filtered accesses a single phase
	// may contain, which bounds the O(n·span) DP. Zero means
	// unlimited.
	MaxSpan int
}

// Partition returns the optimal phase boundaries for a filtered trace
// of data-sample IDs. The result holds indices into the trace: a
// boundary at index i means a new phase begins at element i. The
// source and sink are implicit, so a trace wholly within one phase
// yields no interior boundaries.
func Partition(ids []int, cfg Config) []int {
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

	// prevOcc[k] is the index of the previous occurrence of ids[k], or
	// -1: element k recurs within a segment starting at i exactly when
	// prevOcc[k] >= i, so the recurrence count of [i, j) grows by one
	// per such element without any per-segment bookkeeping.
	prevOcc := make([]int, n)
	last := make(map[int]int)
	for k, id := range ids {
		p, ok := last[id]
		if !ok {
			p = -1
		}
		prevOcc[k] = p
		last[id] = k
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

	// Source edges: source -> j covers segment [0, j). Weight
	// α·r(0..j-1) + 1.
	r := 0
	for j := 0; j <= n && j <= span; j++ {
		w := alpha*float64(r) + 1
		if w < dist[j] {
			dist[j] = w
			prev[j] = -1 // from source
		}
		if j < n && prevOcc[j] >= 0 {
			r++
		}
	}

	// Edges i -> j (i < j ≤ n) cover segment [i, j): the phase that
	// starts at element i ends right before element j.
	for i := 0; i < n; i++ {
		if dist[i] >= inf {
			continue
		}
		r = 0
		limit := min(i+span, n)
		for j := i + 1; j <= limit; j++ {
			if prevOcc[j-1] >= i {
				r++
			}
			// Now [i, j) is accounted for.
			w := dist[i] + alpha*float64(r) + 1
			if w < dist[j] {
				dist[j] = w
				prev[j] = i
			}
		}
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

// PartitionCost computes the total weight of a given partition of ids,
// using the same cost model as Partition — exposed for testing, for
// fuzzing (a partition returned by Partition must never cost more than
// any other valid partition of the same trace), and for the ablation
// benchmarks.
func PartitionCost(ids []int, bounds []int, alpha float64) float64 {
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	total := 0.0
	start := 0
	segs := make([][2]int, 0, len(bounds)+1)
	for _, b := range bounds {
		segs = append(segs, [2]int{start, b})
		start = b
	}
	segs = append(segs, [2]int{start, len(ids)})
	for _, seg := range segs {
		counts := make(map[int]int)
		r := 0
		for i := seg[0]; i < seg[1]; i++ {
			if counts[ids[i]] > 0 {
				r++
			}
			counts[ids[i]]++
		}
		total += alpha*float64(r) + 1
	}
	return total
}
