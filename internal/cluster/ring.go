package cluster

// The serving-tier half of this package: a consistent-hash ring that
// partitions destination clusters across inanod replicas. The router
// (proxy.go) hashes every query's destination cluster — resolved through
// the same flat atlas the replicas serve — onto this ring, so each
// replica's prediction-tree cache stays hot for exactly its slice of the
// destination space, and a membership change moves only the slice owned
// by the node that joined or left.

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per member: enough that three
// replicas split the key space within a few percent of evenly, cheap
// enough that ring rebuilds on membership change are microseconds.
const DefaultVNodes = 64

// Ring is an immutable consistent-hash ring over named nodes. Build one
// with NewRing; membership changes build a new Ring (the router swaps
// them atomically), they never mutate an existing one.
type Ring struct {
	points []ringPoint
	nodes  []string // distinct members, sorted
}

type ringPoint struct {
	hash uint64
	node int32 // index into nodes
}

// NewRing builds a ring over the given node names with vnodes virtual
// points per node (<= 0 means DefaultVNodes). Duplicate names collapse;
// input order never matters: the same membership set always yields the
// same ring, so independently-configured routers agree on placement.
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	distinct := make([]string, 0, len(nodes))
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n != "" && !seen[n] {
			seen[n] = true
			distinct = append(distinct, n)
		}
	}
	sort.Strings(distinct)
	r := &Ring{
		nodes:  distinct,
		points: make([]ringPoint, 0, len(distinct)*vnodes),
	}
	for i, n := range distinct {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: pointHash(n, v),
				node: int32(i),
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Colliding points tie-break on node order so placement stays
		// deterministic even then.
		return a.node < b.node
	})
	return r
}

// pointHash places virtual point v of a node on the ring. The mix64
// finalizer matters: raw FNV-1a of short, similar names (replica URLs
// differing in one port digit) clusters badly, skewing shares.
func pointHash(node string, v int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(node))
	h.Write([]byte("#"))
	h.Write([]byte(strconv.Itoa(v)))
	return mix64(h.Sum64())
}

// KeyForCluster derives the ring key for a destination cluster. Cluster
// IDs are small dense integers; the finalizer spreads them over the full
// 64-bit ring so consecutive clusters land on unrelated points.
func KeyForCluster(c ClusterID) uint64 {
	return mix64(uint64(uint32(c)))
}

// KeyForPrefix derives the ring key for a destination prefix the routing
// table cannot place (no cluster attachment). Unplaceable destinations
// are unanswerable everywhere, so any deterministic spread works; the
// high tag keeps the key space disjoint from KeyForCluster.
func KeyForPrefix(p uint32) uint64 {
	return mix64(uint64(p) | 1<<40)
}

// mix64 is splitmix64's finalizer: a cheap bijective scrambler with full
// avalanche, so dense inputs cover the ring uniformly.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Len returns the number of member nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// Owner returns the node owning key: the first virtual point at or after
// key, wrapping. Empty ring returns "".
func (r *Ring) Owner(key uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	i := r.search(key)
	return r.nodes[r.points[i].node]
}

// Owners returns up to n distinct nodes for key in ring order: the owner
// first, then each successive fallback. The router walks this sequence
// when a replica fails mid-request, so retries land deterministically.
// n <= 0 or n > Len() returns all members.
func (r *Ring) Owners(key uint64, n int) []string {
	if len(r.points) == 0 {
		return nil
	}
	if n <= 0 || n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]string, 0, n)
	seen := make(map[int32]bool, n)
	i := r.search(key)
	for j := 0; j < len(r.points) && len(out) < n; j++ {
		p := r.points[(i+j)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, r.nodes[p.node])
		}
	}
	return out
}

// search returns the index of the first point with hash >= key, wrapping
// to 0 past the end.
func (r *Ring) search(key uint64) int {
	i := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].hash >= key
	})
	if i == len(r.points) {
		return 0
	}
	return i
}
