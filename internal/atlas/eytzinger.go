package atlas

import (
	"math/bits"

	"inano/internal/cluster"
	"inano/internal/netsim"
)

// Eytzinger-layout search index over a sorted key table.
//
// The flat atlas's lookup tables are sorted parallel slices, and a plain
// binary search over a sorted slice touches a new cache line on almost
// every probe: the first few midpoints are far apart, so nothing the
// previous query loaded helps the next one. Laying the same keys out in
// BFS (Eytzinger) order fixes that — the first levels of the implicit
// tree pack into a handful of cache lines shared by *every* search, and
// the descent is branch-free (the comparison folds into the slot
// arithmetic, so the branch predictor has nothing to mispredict). Each
// node carries its value alongside its key, so a hit costs no second
// lookup into the sorted value slices at all — one array, one walk.
//
// The index is derived, never serialized: the sorted slices remain the
// canonical form (the INANOFL1 codec, mmap aliasing, and Inflate are all
// untouched), and buildIndex reconstructs the Eytzinger arrays from them
// after Compile or after a flat file is decoded.
type eytIndex[K ~uint32 | ~uint64, V any] struct {
	// nodes is the sorted table permuted into 1-based BFS order;
	// nodes[0] is an unused sentinel so slot arithmetic starts at 1.
	nodes []eytNode[K, V]
}

type eytNode[K ~uint32 | ~uint64, V any] struct {
	key K
	val V
}

// newEytIndex builds the index over sorted (strictly ascending) keys and
// their parallel values. vals may be nil (existence-only sets): every
// node then carries the zero V, which for V = struct{} occupies nothing.
func newEytIndex[K ~uint32 | ~uint64, V any](keys []K, vals []V) eytIndex[K, V] {
	n := len(keys)
	e := eytIndex[K, V]{nodes: make([]eytNode[K, V], n+1)}
	// In-order traversal of the implicit BFS tree visits slots in sorted
	// key order, so walking it while consuming `keys` left to right
	// places every entry at its Eytzinger position.
	e.fill(keys, vals, 0, 1)
	return e
}

// fill places keys[next:] (and their values) in the subtree rooted at slot,
// in order, and returns the position of the first key it did not consume.
func (e *eytIndex[K, V]) fill(keys []K, vals []V, next, slot int) int {
	if slot >= len(e.nodes) {
		return next
	}
	next = e.fill(keys, vals, next, 2*slot)
	e.nodes[slot].key = keys[next]
	if vals != nil {
		e.nodes[slot].val = vals[next]
	}
	return e.fill(keys, vals, next+1, 2*slot+1)
}

// ceil returns the smallest key >= k with its value — the lower bound.
// ok is false when every key is smaller (or the table is empty).
//
// The descent is branch-free: the comparison result is folded into the
// slot arithmetic (compiled to a conditional move, nothing for the
// branch predictor to mispredict). On exit, slot's trailing one-bits are
// the right-turns taken since the lower bound was last visited;
// shifting them off (plus one) lands back on it.
func (e *eytIndex[K, V]) ceil(k K) (K, V, bool) {
	nodes := e.nodes
	n := uint(len(nodes))
	slot := uint(1)
	for slot < n {
		// bits.Sub64's borrow is the unsigned key<k comparison as an
		// integer — an SBB instruction, no branch anywhere in the loop.
		_, lt := bits.Sub64(uint64(nodes[slot].key), uint64(k), 0)
		slot = 2*slot + uint(lt)
	}
	slot >>= uint(bits.TrailingZeros(^slot)) + 1
	if slot == 0 {
		var zk K
		var zv V
		return zk, zv, false
	}
	nd := &nodes[slot]
	return nd.key, nd.val, true
}

// find returns the value stored under exactly k.
func (e *eytIndex[K, V]) find(k K) (V, bool) {
	key, v, ok := e.ceil(k)
	if !ok || key != k {
		var zv V
		return zv, false
	}
	return v, true
}

// contains reports whether exactly k is present.
func (e *eytIndex[K, V]) contains(k K) bool {
	key, _, ok := e.ceil(k)
	return ok && key == k
}

// adjustVal is the payload of the correction index: both residual terms
// of one destination prefix in a single node.
type adjustVal struct {
	global, local float32
}

// flatIndex bundles the derived search indexes of one Flat: every sorted
// table the serving path probes, in Eytzinger layout. An index is immutable
// once built and lives on the heap, never in a file mapping, so a Flat may
// share one with the Flat it was derived from (see Apply).
type flatIndex struct {
	prefixCl eytIndex[netsim.Prefix, cluster.ClusterID]
	prefixAS eytIndex[netsim.Prefix, netsim.ASN]
	iface    eytIndex[netsim.Prefix, cluster.ClusterID]
	adjust   eytIndex[netsim.Prefix, adjustVal]
	prefs    eytIndex[uint64, struct{}]
	provs    eytIndex[uint64, struct{}]
	rels     eytIndex[uint64, netsim.Rel]
}

// buildIndex (re)derives the Eytzinger search indexes from the sorted
// key tables. Compile and the flat codec's decode path both call it
// before the Flat is published; after that the Flat (index included) is
// immutable.
func (f *Flat) buildIndex() {
	f.buildDailyIndex()
	f.idx.prefixAS = newEytIndex(f.PrefixASKeys, f.PrefixASVals)
	f.idx.prefs = newEytIndex[uint64, struct{}](f.Prefs, nil)
	f.idx.provs = newEytIndex[uint64, struct{}](f.Providers, nil)
	f.idx.rels = newEytIndex(f.RelKeys, f.RelVals)
}

// buildDailyIndex derives the indexes over the tables a delta can change.
func (f *Flat) buildDailyIndex() {
	f.idx.prefixCl = newEytIndex(f.PrefixClKeys, f.PrefixClVals)
	f.idx.iface = newEytIndex(f.IfaceKeys, f.IfaceVals)
	adj := make([]adjustVal, len(f.AdjustKeys))
	for i := range adj {
		adj[i] = adjustVal{global: f.AdjustGlobal[i], local: f.AdjustLocal[i]}
	}
	f.idx.adjust = newEytIndex(f.AdjustKeys, adj)
}
