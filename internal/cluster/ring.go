// Package cluster scales lppserve horizontally: a deterministic
// consistent-hash ring places every session on one of N nodes, a
// health-gated router forwards chunks to the owner (riding the
// seq-numbered idempotency protocol across failover), and live
// migration moves a session between nodes through its LPPCKPT1
// checkpoint image.
//
// Phase behavior is a per-program, per-run property (Locality phase
// prediction, ASPLOS 2004), so sessions are independent and shard
// cleanly: no cross-session state means placement is pure hashing and
// migration is one image, not a distributed transaction.
package cluster

import (
	"fmt"
	"sort"
)

// DefaultVnodes is the virtual-node count per member: enough that the
// max/min load ratio stays modest at small N without making ring
// lookups expensive.
const DefaultVnodes = 128

// Ring is a consistent-hash ring with virtual nodes. Placement is
// deterministic across process restarts: it depends only on the member
// names and the vnode count, never on insertion order or clock.
// A Ring is immutable after New — rebalancing builds a new Ring — so
// lookups need no locking.
type Ring struct {
	nodes  []string
	vnodes int
	// points are the vnode hashes, sorted; owners[i] names the member
	// owning points[i].
	points []uint64
	owners []string
}

// ringHash is FNV-1a pushed through a 64-bit avalanche finisher. Raw
// FNV correlates on the near-identical "node#0", "node#1", ... vnode
// labels, which bunches points and skews the load split; the final mix
// decorrelates them.
func ringHash(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// New builds a ring over the given member names (typically advertised
// base URLs) with vnodes virtual nodes each (<=0 means DefaultVnodes).
// Duplicate and empty names are rejected.
func New(nodes []string, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	seen := make(map[string]bool, len(nodes))
	sorted := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node name")
		}
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate node %q", n)
		}
		seen[n] = true
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	r := &Ring{
		nodes:  sorted,
		vnodes: vnodes,
		points: make([]uint64, 0, len(sorted)*vnodes),
		owners: make([]string, 0, len(sorted)*vnodes),
	}
	type point struct {
		hash  uint64
		owner string
	}
	pts := make([]point, 0, len(sorted)*vnodes)
	for _, n := range sorted {
		for v := 0; v < vnodes; v++ {
			pts = append(pts, point{hash: ringHash(fmt.Sprintf("%s#%d", n, v)), owner: n})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].hash != pts[j].hash {
			return pts[i].hash < pts[j].hash
		}
		// Hash ties (vanishingly rare) break by name so the ring is
		// still deterministic.
		return pts[i].owner < pts[j].owner
	})
	for _, p := range pts {
		r.points = append(r.points, p.hash)
		r.owners = append(r.owners, p.owner)
	}
	return r, nil
}

// Nodes returns the ring's members, sorted.
func (r *Ring) Nodes() []string {
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Owner returns the node owning key: the first vnode point at or after
// the key's hash, wrapping at the top of the ring.
func (r *Ring) Owner(key string) string {
	i := r.search(ringHash(key))
	return r.owners[i]
}

// OwnerWith returns the node owning key among the members for which
// alive returns true, walking the ring past dead owners (each distinct
// node considered once, in ring order). It returns "" when every node
// is dead. A nil alive means everyone is alive.
func (r *Ring) OwnerWith(key string, alive func(node string) bool) string {
	if alive == nil {
		return r.Owner(key)
	}
	start := r.search(ringHash(key))
	tried := make(map[string]bool, len(r.nodes))
	for i := 0; i < len(r.points) && len(tried) < len(r.nodes); i++ {
		owner := r.owners[(start+i)%len(r.points)]
		if tried[owner] {
			continue
		}
		tried[owner] = true
		if alive(owner) {
			return owner
		}
	}
	return ""
}

// search returns the index of the first point >= h, wrapping to 0.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}
