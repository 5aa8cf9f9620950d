// Package core implements iNano's route prediction engine — the paper's
// primary contribution (§4). Given the compact link-level atlas, it predicts
// the cluster-level (PoP-level) path between arbitrary end hosts and
// composes per-link annotations into end-to-end latency and loss estimates.
//
// Two algorithm families share one backtracking Dijkstra core:
//
//   - GRAPH (§4.2): valley-free routing enforced structurally by splitting
//     every cluster into an "up" and a "down" node wired according to
//     inferred AS relationships, with customer<peer<provider local
//     preference imposed by a three-phase frontier, and late-exit pairs
//     folded into the cost metric's pending-hop component.
//
//   - iNano (§4.3): GRAPH plus four refinements, each independently
//     toggleable for the Fig. 5 ablation: the FROM_SRC/TO_DST plane split
//     for route asymmetry, the relationship-agnostic 3-tuple export check
//     (which replaces the up/down construction), observation-inferred AS
//     preference tie-breaking, and the provider check at the destination.
//
// The route computation backtracks from the destination, so one run yields
// predictions from every source to that destination; Engine caches these
// per-destination trees for batch workloads.
//
// The engine holds only the flat serving form of an atlas (atlas.Flat — a
// structure-of-arrays CSR link table plus sorted lookup tables): every
// relaxation, prefix lookup, and path walk reads flat arrays. New compiles
// a map-based atlas into one and keeps no reference to the maps; every
// change to a serving atlas — a day roll, a traceroute merge — derives the
// next Flat from this one (Flat.Apply) and builds a new engine over it,
// with this one's tree cache when routes cannot have moved (NewWithCache).
package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"inano/internal/atlas"
	"inano/internal/cluster"
	"inano/internal/netsim"
)

// Options selects the prediction algorithm variant. The zero value is the
// plain GRAPH algorithm of §4.2.
type Options struct {
	// Asymmetry enables the FROM_SRC plane and the plane-crossing edges
	// of §4.3.1. Without it, predictions use only vantage-point-observed
	// links.
	Asymmetry bool
	// ThreeTuple replaces the valley-free up/down construction and the
	// three-phase local preference with the observed-export 3-tuple check
	// of §4.3.2 (relationship-agnostic routing).
	ThreeTuple bool
	// Preferences applies AS preference tuples as tie-breaks among
	// equal-cost candidates (§4.3.3).
	Preferences bool
	// Providers rejects paths entering the destination AS through an AS
	// never observed as its provider (§4.3.4).
	Providers bool
	// TreeCacheSize bounds the per-destination prediction tree cache;
	// 0 means a default of 4096 trees. A tree is 4 bytes a node (clusters
	// x 2 with Asymmetry, x 2 again without ThreeTuple): ~11 KB on the
	// bench's 1 300-cluster world, so a full default cache is ~43 MB
	// there (CacheStats.Bytes reports what is resident).
	TreeCacheSize int
}

// GraphOptions returns the configuration of the GRAPH baseline.
func GraphOptions() Options { return Options{} }

// INanoOptions returns the full iNano configuration (all refinements on).
func INanoOptions() Options {
	return Options{Asymmetry: true, ThreeTuple: true, Preferences: true, Providers: true}
}

// Engine answers path queries over one atlas snapshot.
//
// Concurrency contract: all query methods (Query, QueryInto,
// PredictForward, and Run on distinct StreamBatch runners) are safe for
// unbounded concurrent use. The per-destination prediction tree cache is
// sharded by destination, so concurrent queries to distinct destinations
// never serialize on a shared lock, and concurrent queries to the same
// cold destination share one backtracking Dijkstra, run only as far as an
// answer needs. Cancellation of a batch skips not-yet-started searches and
// unblocks callers waiting on another caller's; an extension already
// running completes and stays cached, so a retry resumes cheaply. The
// engine itself is immutable after New: to change the atlas, build a new
// engine and publish it with one atomic pointer store (as inano.Client
// does; its readers take no lock).
type Engine struct {
	// f is the compiled flat serving form; every query reads only this.
	f    *atlas.Flat
	opts Options

	numClusters int
	planes      int  // 1 (TO_DST only) or 2 (with FROM_SRC)
	shift       uint // log2 of a cluster's nodes: planes, times 2 for up/down

	trees *shardedTreeCache
	// scratch pools per-extension Dijkstra working state (*runScratch: the
	// node labels, the settled bits and the queue). A tree's own arrays are
	// NOT pooled: trees live in the LRU cache and an evicted tree may still
	// be walked by an in-flight query, so recycling them would be a
	// use-after-free.
	scratch sync.Pool
	// edgeTo is the cluster each CSR edge arrives at (its bucket in
	// f.EdgeStart): where the walk stands after a link's hop word.
	edgeTo []cluster.ClusterID
	// tupleRuns remembers, per CSR edge, the run of f.Tuples that starts
	// with the edge's AS pair, so the export check scans a few keys instead
	// of searching the set. An entry is filled on its edge's first check
	// (tupleOK): filled up front it would cost every day roll's new engine
	// a search an edge, reached or not. Nil unless opts.ThreeTuple.
	tupleRuns []atomic.Uint64
	// clusterDeg is each cluster's AS degree, which gates the export check
	// on the edges arriving there. Nil unless opts.ThreeTuple.
	clusterDeg []int32
	// arcStart and arcs are the search's view of the link table, one CSR
	// over clusters a plane: the edges usable in plane p that arrive at
	// cluster c are arcs[p][arcStart[p][c]:arcStart[p][c+1]], in edge order.
	arcStart [2][]uint32
	arcs     [2][]arc
	// leafTwins has bit c set when cluster c's FROM_SRC node is a leaf twin:
	// no FROM_SRC arc arrives at c or leaves it, so the node is reached
	// only over the cross edge from its TO_DST twin, at that twin's label,
	// and relaxes nothing. The search settles it right after the twin,
	// without the queue. Nil unless opts.ThreeTuple and opts.Asymmetry.
	leafTwins []uint64
}

// arc is one edge as the search reads it, in 16 bytes: w packs the edge's
// latency in cost units (latUnits, so at most costEMask) with its atlas
// flags and, under GRAPH, its inferred relationship (To's AS from From's)
// above them; then the From cluster, and the edge index a hop word names.
type arc struct {
	w    uint64
	from cluster.ClusterID
	ei   uint32
}

const (
	arcRelShift   = 48 // the relationship's byte in arc.w
	arcFlagsShift = 56 // the flags' byte in arc.w
)

func (a *arc) lat() uint64     { return a.w & costEMask }
func (a *arc) flags() uint8    { return uint8(a.w >> arcFlagsShift) }
func (a *arc) rel() netsim.Rel { return netsim.Rel(uint8(a.w >> arcRelShift)) }

// New builds an engine over a, compiling its flat serving form. The atlas
// must not be mutated while New runs; afterwards the engine holds no
// reference to a, so the caller may keep editing it (and build a new
// engine when done).
func New(a *atlas.Atlas, opts Options) *Engine {
	return NewFromFlat(atlas.Compile(a), opts)
}

// NewFromFlat builds an engine directly over a compiled flat atlas (e.g.
// one mapped from disk). The flat form must not be mutated while the
// engine is in use. A link table of maxEdges or more has no hop word and
// panics; no wire format can carry one (a section holds 2^22 records).
func NewFromFlat(f *atlas.Flat, opts Options) *Engine {
	return NewWithCache(f, opts, nil)
}

// NewWithCache builds an engine over f while adopting prev's
// prediction-tree cache. Caller contract: f must be route-identical to
// prev's atlas — same clusters, links in the same order (trees hold edge
// indexes), planes, and policy datasets, differing only in data the route
// computation never reads (the residual corrections in the Adjust tables)
// — and opts must equal prev's. Used when an applied delta changed
// corrections only (a residual-only traceroute merge, a correction push),
// where NewFromFlat would needlessly cold-start a warm serving cache; prev
// keeps working, sharing the cache (and what is derived per edge and per
// cluster: same links, same ASes and policy tables), which the new engine
// then does not build. A nil prev is NewFromFlat.
func NewWithCache(f *atlas.Flat, opts Options, prev *Engine) *Engine {
	if f.NumEdges() >= maxEdges {
		panic(fmt.Sprintf("core: link table of %d edges, a tree's hop word holds %d", f.NumEdges(), maxEdges-1))
	}
	if opts.TreeCacheSize <= 0 {
		opts.TreeCacheSize = 4096
	}
	e := &Engine{f: f, opts: opts, numClusters: int(f.NumClusters)}
	e.planes = 1
	if opts.Asymmetry {
		e.planes = 2
	}
	e.shift = uint(e.planes - 1)
	if !opts.ThreeTuple {
		e.shift++ // up/down doubling
	}
	n := e.numNodes()
	e.scratch.New = func() any { return newRunScratch(n) }
	if prev != nil {
		e.trees, e.edgeTo, e.tupleRuns = prev.trees, prev.edgeTo, prev.tupleRuns
		e.clusterDeg, e.arcStart, e.arcs, e.leafTwins = prev.clusterDeg, prev.arcStart, prev.arcs, prev.leafTwins
		return e
	}
	e.trees = newShardedTreeCache(opts.TreeCacheSize, treeCacheShards(opts.TreeCacheSize))
	e.deriveEdges(f, !opts.ThreeTuple)
	if opts.ThreeTuple {
		e.tupleRuns = make([]atomic.Uint64, f.NumEdges())
		e.clusterDeg = f.ClusterDegrees()
		if opts.Asymmetry {
			e.leafTwins = make([]uint64, (e.numClusters+63)/64)
			for c := range e.numClusters {
				if e.arcStart[planeFromSrc][c] == e.arcStart[planeFromSrc][c+1] {
					e.leafTwins[c>>6] |= 1 << (c & 63) // no FROM_SRC arc arrives...
				}
			}
			for _, a := range e.arcs[planeFromSrc] {
				e.leafTwins[a.from>>6] &^= 1 << (a.from & 63) // ...nor leaves
			}
		}
	}
	return e
}

// deriveEdges fills, in one pass over f's CSR, edgeTo and the arc table of
// each of e's planes (an edge in both planes is one record twice). Under
// GRAPH (graph) an arc carries its relationship, which the up/down
// construction reads.
func (e *Engine) deriveEdges(f *atlas.Flat, graph bool) {
	var n [2]int
	for _, p := range f.EdgePlanes {
		n[planeToDst] += int(p & atlas.PlaneToDst)
		n[planeFromSrc] += int(p&atlas.PlaneFromSrc) >> 1
	}
	all := make([]arc, n[planeToDst]+n[planeFromSrc]*(e.planes-1))
	for p := range e.planes {
		e.arcStart[p], e.arcs[p], all = make([]uint32, e.numClusters+1), all[:n[p]], all[n[p]:]
	}
	e.edgeTo = make([]cluster.ClusterID, f.NumEdges())
	toDst, fromSrc, asym := e.arcs[planeToDst], e.arcs[planeFromSrc], e.planes == 2
	var k [2]uint32
	for c := range e.numClusters {
		for ei := f.EdgeStart[c]; ei < f.EdgeStart[c+1]; ei++ {
			e.edgeTo[ei] = cluster.ClusterID(c)
			a := arc{w: latUnits(f.EdgeLat[ei]) | uint64(f.EdgeFlags[ei])<<arcFlagsShift, from: f.EdgeFrom[ei], ei: ei}
			if graph {
				a.w |= uint64(uint8(f.RelOf(f.ClusterAS[a.from], f.ClusterAS[c]))) << arcRelShift
			}
			if f.EdgePlanes[ei]&atlas.PlaneToDst != 0 {
				toDst[k[planeToDst]], k[planeToDst] = a, k[planeToDst]+1
			}
			if asym && f.EdgePlanes[ei]&atlas.PlaneFromSrc != 0 {
				fromSrc[k[planeFromSrc]], k[planeFromSrc] = a, k[planeFromSrc]+1
			}
		}
		for p := range e.planes {
			e.arcStart[p][c+1] = k[p]
		}
	}
}

// WarmList returns the keys of the trees resident in prev, hottest first —
// what Warm should rebuild on e when e takes over from prev — or nil when
// e adopted prev's cache. It is 8 bytes a tree and holds nothing of prev.
func (e *Engine) WarmList(prev *Engine) []uint64 {
	if e.trees == prev.trees {
		return nil
	}
	return prev.trees.keysMRU()
}

// Warm builds on e the trees keys name, in order, until done or stop
// reports true (e was superseded). Yesterday's residency is a guess at
// today's demand, free when wrong. Until Warm returns, a miss on a key is
// searched whole; a key e's atlas lacks is skipped, others go in (warm).
func (e *Engine) Warm(keys []uint64, stop func() bool) {
	popular := slices.Sorted(slices.Values(keys))
	e.trees.popular.Store(&popular)
	defer e.trees.popular.Store(new([]uint64))
	for _, k := range keys {
		if stop() {
			return
		}
		if k>>32 < uint64(e.numClusters) {
			e.trees.warm(k, e)
		}
	}
}

// CacheStats reports tree cache counters: hits, misses, searches started,
// trees resident, suspended and retained bytes, trees warmed and hit.
func (e *Engine) CacheStats() CacheStats {
	st := e.trees.stats()
	st.Bytes += int64(st.Len) * e.treeBytes()
	return st
}

// treeBytes is what one tree retains besides a suspended search's frontier:
// header, hop word and settled bit a node, and lock, before size classes.
func (e *Engine) treeBytes() int64 {
	n := int64(e.numNodes())
	return int64(unsafe.Sizeof(tree{})) + 4*n + 8*((n+63)/64) + lockBytes
}

const lockBytes = 96 // a channel header, with no buffer for struct{}

// Flat returns the engine's compiled serving-form atlas.
func (e *Engine) Flat() *atlas.Flat { return e.f }

// Day returns the measurement day of the engine's atlas snapshot.
func (e *Engine) Day() int { return int(e.f.Day) }

// HopCluster places a traceroute hop interface in the atlas's cluster
// space: the interface-prefix table first (infrastructure /24s observed by
// the build), then the end-host attachment table. ok is false when the
// atlas has never seen the hop's /24.
func (e *Engine) HopCluster(p netsim.Prefix) (cluster.ClusterID, bool) {
	if cl, ok := e.f.IfaceClusterOf(p); ok {
		return cl, true
	}
	return e.f.ClusterOf(p)
}

// Node state encoding.
//
// GRAPH mode:  id = cluster*4 + plane*2 + ud   (ud: 0 = up, 1 = down)
// iNano mode:  id = cluster*2 + plane
//
// plane: 0 = TO_DST, 1 = FROM_SRC. Backtracking starts at the destination's
// down/TO_DST node and relaxes toward sources; a zero-cost cross edge lets
// the search continue from a cluster's TO_DST node into its FROM_SRC node
// (traffic flows FROM_SRC -> TO_DST).
const (
	planeToDst   = 0
	planeFromSrc = 1
	stateUp      = 0
	stateDown    = 1
)

func (e *Engine) nodeID(c cluster.ClusterID, plane, ud int) int32 {
	if e.opts.ThreeTuple {
		return int32(c)<<e.shift | int32(plane)
	}
	return int32(c)<<e.shift | int32(plane)<<1 | int32(ud)
}

func (e *Engine) nodeCluster(id int32) cluster.ClusterID { return cluster.ClusterID(id >> e.shift) }

func (e *Engine) nodePlane(id int32) int {
	if e.opts.ThreeTuple {
		return int(id) & (e.planes - 1)
	}
	return int(id) >> 1 & (e.planes - 1)
}

func (e *Engine) nodeUD(id int32) int {
	if e.opts.ThreeTuple {
		return stateUp
	}
	return int(id) % 2
}

func (e *Engine) numNodes() int { return e.numClusters << e.shift }
