package atlas

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"inano/internal/cluster"
	"inano/internal/netsim"
)

// Flat is the compiled, index-addressed serving form of an Atlas: every
// dataset the query engine reads on its hot path, laid out as flat arrays
// instead of Go maps. The map-based Atlas is the build-side form (the
// builder, the folds and the codec work on it); Compile produces a Flat
// from it once, the engine answers every query against the Flat without
// chasing a single map bucket or pointer, and a daily delta is merged
// straight into a new Flat by Apply — a serving client never goes back to
// maps to stay current.
//
// Layout:
//
//   - The link table is a structure-of-arrays CSR keyed by destination
//     cluster: EdgeStart[w]..EdgeStart[w+1] index the edges arriving at
//     cluster w (traffic direction from->w), with parallel latency, loss,
//     plane, relationship, AS, and degree arrays — exactly the shape the
//     backtracking Dijkstra relaxes over. Per-edge derived facts the old
//     engine recomputed from maps (same-AS, late-exit, inferred rel,
//     origin degree) are baked in at compile time.
//   - Prefix tables (attachment cluster, BGP origin, interface clusters,
//     residual corrections) are sorted parallel key/value slices answered
//     by branch-free binary search.
//   - The 3-tuple, preference, provider, relationship, and late-exit sets
//     are sorted uint64 slices.
//
// Every field is a plain slice of fixed-width scalars, so a Flat can be
// serialized as raw little-endian sections and mapped back into memory
// with zero copies (see WriteFlat/OpenFlat): daemon startup is one mmap
// instead of a gzip decode + map build, and N replicas on one box share
// the page cache. A Flat is immutable after Compile/OpenFlat/Apply; all
// methods are safe for unbounded concurrent use.
type Flat struct {
	// Day is the atlas day this snapshot was compiled from.
	Day int32
	// NumClusters bounds the cluster ID space: every ClusterID in the
	// tables below is < NumClusters.
	NumClusters int32
	// ClusterAS maps each cluster to its owning AS (index = cluster ID).
	//inano:mmap
	ClusterAS []netsim.ASN

	// CSR link table, bucketed by destination (To) cluster. Buckets
	// preserve the Links slice order, so the engine relaxes edges in
	// exactly the order the map-based engine did (tie-break parity).
	//inano:mmap
	EdgeStart []uint32 // len NumClusters+1
	//inano:mmap
	EdgeFrom []cluster.ClusterID // source cluster of the edge
	//inano:mmap
	EdgeLat []float32
	//inano:mmap
	EdgeLoss []float32 // 0 when the link has no loss annotation
	//inano:mmap
	EdgePlanes []uint8
	//inano:mmap
	EdgeFlags []uint8 // EdgeSameAS | EdgeLate
	//inano:mmap
	EdgeRel []netsim.Rel // relationship of To's AS from From's perspective
	//inano:mmap
	EdgeFromAS []netsim.ASN
	//inano:mmap
	EdgeToAS []netsim.ASN
	//inano:mmap
	EdgeToDeg []int32 // observed AS-graph degree of the edge's To AS

	// Sorted prefix tables (parallel key/value slices): destination /24
	// to attachment cluster, destination /24 to BGP origin AS, and
	// infrastructure /24 to owning cluster.
	//inano:mmap
	PrefixClKeys []netsim.Prefix
	//inano:mmap
	PrefixClVals []cluster.ClusterID
	//inano:mmap
	PrefixASKeys []netsim.Prefix
	//inano:mmap
	PrefixASVals []netsim.ASN
	//inano:mmap
	IfaceKeys []netsim.Prefix
	//inano:mmap
	IfaceVals []cluster.ClusterID
	// Residual corrections: the union of the atlas's shipped
	// (GlobalAdjustMS) and client-local (AdjustMS) tables, key-aligned so
	// one binary search answers both terms.
	//inano:mmap
	AdjustKeys []netsim.Prefix
	//inano:mmap
	AdjustGlobal []float32
	//inano:mmap
	AdjustLocal []float32

	// Sorted policy sets.
	//inano:mmap
	Tuples []uint64 // PackTriple keys
	//inano:mmap
	Prefs []uint64 // PackTriple keys
	//inano:mmap
	Providers []uint64 // origin<<32 | provider
	//inano:mmap
	RelKeys []uint64 // netsim.ASPairKey
	//inano:mmap
	RelVals []netsim.Rel
	//inano:mmap
	LateExit []uint64 // netsim.ASPairKey
	// Full degree and loss tables (the per-edge arrays above carry the
	// hot-path values; these exist so Inflate can reconstruct the maps).
	//inano:mmap
	DegKeys []netsim.ASN
	//inano:mmap
	DegVals []int32
	//inano:mmap
	LossKeys []uint64
	//inano:mmap
	LossVals []float32

	// idx holds the derived Eytzinger-layout search indexes over the
	// sorted key tables above (see eytzinger.go). It is rebuilt by
	// buildIndex after Compile or a codec decode, never serialized, and
	// never aliases the mmap; the sorted slices stay the canonical form.
	idx flatIndex
}

// Per-edge flag bits in EdgeFlags.
const (
	// EdgeSameAS marks an intra-AS edge (From and To clusters share an AS).
	EdgeSameAS uint8 = 1 << 0
	// EdgeLate marks an inter-AS edge whose AS pair runs late-exit routing.
	EdgeLate uint8 = 1 << 1
)

// Compile builds the flat serving form of a. The atlas must not be mutated
// concurrently; the returned Flat does not alias any of a's mutable state,
// so a may keep evolving (copy-on-write or in place) afterwards.
func Compile(a *Atlas) *Flat {
	mapOps.compiles.Add(1)
	f := &Flat{
		Day:         int32(a.Day),
		NumClusters: int32(a.NumClusters),
		ClusterAS:   cloneTable(a.ClusterAS),
	}
	f.PrefixClKeys, f.PrefixClVals = sortedTable(a.PrefixCluster)
	f.IfaceKeys, f.IfaceVals = sortedTable(a.IfaceCluster)
	f.PrefixASKeys, f.PrefixASVals = sortedTable(a.PrefixAS)
	f.AdjustKeys, f.AdjustGlobal, f.AdjustLocal = sortedAdjust(a.GlobalAdjustMS, a.AdjustMS)
	f.Tuples = sortedKeys(a.Tuples)
	f.Prefs = sortedKeys(a.Prefs)
	f.LateExit = sortedKeys(a.LateExit)
	f.RelKeys, f.RelVals = sortedTable(a.Rels)
	f.DegKeys, f.DegVals = sortedTable(a.ASDegree)
	f.LossKeys, f.LossVals = sortedTable(a.Loss)

	f.Providers = providerKeys(a.Providers)
	f.finish(a.Links)
	return f
}

// providerKeys lays a provider map out as the sorted origin<<32 | provider
// keys of Flat.Providers.
func providerKeys(m map[netsim.ASN][]netsim.ASN) []uint64 {
	keys := make([]uint64, 0, len(m))
	for origin, ups := range m {
		for _, up := range ups {
			keys = append(keys, uint64(origin)<<32|uint64(up))
		}
	}
	slices.Sort(keys)
	return keys
}

// finish is the step Compile and DecodeFlat end in: with every table of f
// set, it derives the search indexes and builds the CSR link table from
// links, each edge's baked facts taken from f's own sorted tables. The
// counting sort by To keeps, inside each bucket, the order links are in
// (the order the map engine appended its in-edges: tie-break parity).
// Links outside the cluster space are skipped.
func (f *Flat) finish(links []Link) {
	f.buildIndex()
	n := int(f.NumClusters)
	inSpace := func(l *Link) bool { return l.From >= 0 && int(l.From) < n && l.To >= 0 && int(l.To) < n }
	start := make([]uint32, n+1)
	for i := range links {
		if inSpace(&links[i]) {
			start[links[i].To+1]++
		}
	}
	for w := 0; w < n; w++ {
		start[w+1] += start[w]
	}
	valid := int(start[n])
	from := make([]cluster.ClusterID, valid)
	lat := make([]float32, valid)
	loss := make([]float32, valid)
	planes := make([]uint8, valid)
	flags := make([]uint8, valid)
	rel := make([]netsim.Rel, valid)
	fromAS := make([]netsim.ASN, valid)
	toAS := make([]netsim.ASN, valid)
	toDeg := make([]int32, valid)
	next := slices.Clone(start[:n])
	for i := range links {
		l := &links[i]
		if !inSpace(l) {
			continue
		}
		ei := next[l.To]
		next[l.To]++
		from[ei], lat[ei], planes[ei] = l.From, l.LatencyMS, l.Planes
		if li, ok := slices.BinarySearch(f.LossKeys, LinkKey(l.From, l.To)); ok {
			loss[ei] = f.LossVals[li]
		}
		fromAS[ei], toAS[ei] = f.ClusterAS[l.From], f.ClusterAS[l.To]
		flags[ei], rel[ei], toDeg[ei] = f.edgeFacts(fromAS[ei], toAS[ei])
	}
	f.EdgeStart, f.EdgeFrom, f.EdgeLat, f.EdgeLoss = start, from, lat, loss
	f.EdgePlanes, f.EdgeFlags, f.EdgeRel = planes, flags, rel
	f.EdgeFromAS, f.EdgeToAS, f.EdgeToDeg = fromAS, toAS, toDeg
}

// edgeFacts returns what an edge from a cluster of AS fa into one of AS ta
// bakes in from the monthly tables: its flags, the relationship of ta from
// fa's side, and ta's degree.
func (f *Flat) edgeFacts(fa, ta netsim.ASN) (flags uint8, rel netsim.Rel, toDeg int32) {
	if fa == ta {
		flags = EdgeSameAS
	} else if _, late := slices.BinarySearch(f.LateExit, netsim.ASPairKey(fa, ta)); late {
		flags = EdgeLate
	}
	if i, ok := slices.BinarySearch(f.DegKeys, ta); ok {
		toDeg = f.DegVals[i]
	}
	return flags, f.RelOf(fa, ta), toDeg
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// sortedTable lays m out as parallel key/value slices in ascending key
// order — the shape of every lookup table in a Flat.
func sortedTable[K cmp.Ordered, V any](m map[K]V) ([]K, []V) {
	keys := sortedKeys(m)
	vals := make([]V, len(keys))
	for i, k := range keys {
		vals[i] = m[k]
	}
	return keys, vals
}

func sortedAdjust(global, local map[netsim.Prefix]float32) ([]netsim.Prefix, []float32, []float32) {
	union := make(map[netsim.Prefix]struct{}, len(global)+len(local))
	for k := range global {
		union[k] = struct{}{}
	}
	for k := range local {
		union[k] = struct{}{}
	}
	keys := sortedKeys(union)
	g := make([]float32, len(keys))
	l := make([]float32, len(keys))
	for i, k := range keys {
		g[i] = global[k]
		l[i] = local[k]
	}
	return keys, g, l
}

// ClusterOf returns the attachment cluster of a prefix.
func (f *Flat) ClusterOf(p netsim.Prefix) (cluster.ClusterID, bool) {
	return f.idx.prefixCl.find(p)
}

// OriginAS returns the BGP origin of a prefix (0 when unknown).
func (f *Flat) OriginAS(p netsim.Prefix) netsim.ASN {
	as, _ := f.idx.prefixAS.find(p)
	return as // zero when absent
}

// IfaceClusterOf returns the cluster owning an infrastructure /24.
func (f *Flat) IfaceClusterOf(p netsim.Prefix) (cluster.ClusterID, bool) {
	return f.idx.iface.find(p)
}

// Adjust returns the shipped (global) and client-local residual correction
// terms for a destination prefix; ok is false when neither is carried.
func (f *Flat) Adjust(p netsim.Prefix) (global, local float32, ok bool) {
	v, found := f.idx.adjust.find(p)
	return v.global, v.local, found
}

// HasTuple reports whether the 3-tuple (x,y,z) was observed: the plain
// accessor, which tests compare against. The set has no derived index to
// rebuild at every day roll; the engine, its one hot reader, asks per link,
// keeps that link's TupleRun and calls HasTupleIn.
func (f *Flat) HasTuple(x, y, z netsim.ASN) bool {
	lo, hi := f.TupleRun(x, y)
	return f.HasTupleIn(lo, hi, x, y, z)
}

// TupleRun returns the bounds [lo,hi) of the run of f.Tuples holding the
// observed 3-tuples that start (x,y,·) — a few keys at most.
func (f *Flat) TupleRun(x, y netsim.ASN) (lo, hi uint32) {
	first := PackTriple(x, y, 0)
	l, _ := slices.BinarySearch(f.Tuples, first)
	h := l
	for h < len(f.Tuples) && f.Tuples[h] <= first|MaxASN {
		h++
	}
	return uint32(l), uint32(h)
}

// HasTupleIn is HasTuple(x,y,z) for a caller that holds TupleRun(x,y).
func (f *Flat) HasTupleIn(lo, hi uint32, x, y, z netsim.ASN) bool {
	want := PackTriple(x, y, z)
	for _, k := range f.Tuples[lo:hi] {
		if k >= want {
			return k == want
		}
	}
	return false
}

// Prefers reports whether AS at prefers next-hop b over next-hop c.
func (f *Flat) Prefers(at, b, c netsim.ASN) bool {
	return f.idx.prefs.contains(PackTriple(at, b, c))
}

// ProviderCheck applies the §4.3.4 provider test for an edge from fromAS
// into the destination origin AS: true when the atlas has no provider data
// for origin, or records fromAS as one of its providers.
func (f *Flat) ProviderCheck(origin, fromAS netsim.ASN) bool {
	// Lower-bound probe: is any provider entry recorded for origin?
	key, _, any := f.idx.provs.ceil(uint64(origin) << 32)
	if !any || netsim.ASN(key>>32) != origin {
		return true // no provider data: cannot enforce
	}
	return f.idx.provs.contains(uint64(origin)<<32 | uint64(fromAS))
}

// RelOf returns the inferred relationship of y from x's perspective.
func (f *Flat) RelOf(x, y netsim.ASN) netsim.Rel {
	r, ok := f.idx.rels.find(netsim.ASPairKey(x, y))
	if !ok {
		return netsim.RelNone
	}
	if x <= y {
		return r
	}
	return r.Invert()
}

// LinkAt returns the directed link from->to, scanning to's CSR bucket (a
// cluster's in-degree is small); ok is false when the atlas has none.
func (f *Flat) LinkAt(from, to cluster.ClusterID) (l Link, ok bool) {
	if to < 0 || int32(to) >= f.NumClusters {
		return Link{}, false
	}
	for ei := f.EdgeStart[to]; ei < f.EdgeStart[to+1]; ei++ {
		if f.EdgeFrom[ei] == from {
			return Link{From: from, To: to, LatencyMS: f.EdgeLat[ei], Planes: f.EdgePlanes[ei]}, true
		}
	}
	return Link{}, false
}

// NumEdges returns the CSR link count.
func (f *Flat) NumEdges() int { return len(f.EdgeFrom) }

// Inflate reconstructs a mutable map-based Atlas from the flat form. No
// serving client calls it on any path that changes its atlas — day rolls
// and traceroute merges alike are a Delta through Apply — so it is for
// inspection and for the tests that hold Apply to the map path. The build-side
// ObservedLinks/ObservedAttach lifetime tables are not part of the
// serving form (deltas never carry them) and come back empty.
func (f *Flat) Inflate() *Atlas {
	a := f.maps()
	a.Links = make([]Link, 0, f.NumEdges())
	for w := 0; w < int(f.NumClusters); w++ {
		for ei := f.EdgeStart[w]; ei < f.EdgeStart[w+1]; ei++ {
			a.Links = append(a.Links, Link{
				From:      f.EdgeFrom[ei],
				To:        cluster.ClusterID(w),
				LatencyMS: f.EdgeLat[ei],
				Planes:    f.EdgePlanes[ei],
			})
		}
	}
	sort.Slice(a.Links, func(i, j int) bool {
		if a.Links[i].From != a.Links[j].From {
			return a.Links[i].From < a.Links[j].From
		}
		return a.Links[i].To < a.Links[j].To
	})
	for i, k := range f.AdjustKeys {
		if g := f.AdjustGlobal[i]; g != 0 {
			a.GlobalAdjustMS[k] = g
		}
		if l := f.AdjustLocal[i]; l != 0 {
			a.AdjustMS[k] = l
		}
	}
	return a
}

// maps lays f's tables out as the map form's datasets, each map made at its
// final size: all of an Atlas but its Links, its corrections and its
// lifetime tables, which Inflate and Decode fill from their own sources.
func (f *Flat) maps() *Atlas {
	a := New()
	a.Day, a.NumClusters = int(f.Day), int(f.NumClusters)
	a.ClusterAS = append([]netsim.ASN(nil), f.ClusterAS...)
	a.Loss = tableMap(f.LossKeys, f.LossVals)
	a.PrefixCluster = tableMap(f.PrefixClKeys, f.PrefixClVals)
	a.IfaceCluster = tableMap(f.IfaceKeys, f.IfaceVals)
	a.PrefixAS = tableMap(f.PrefixASKeys, f.PrefixASVals)
	a.ASDegree = tableMap(f.DegKeys, f.DegVals)
	a.Tuples, a.Prefs, a.LateExit = keySet(f.Tuples), keySet(f.Prefs), keySet(f.LateExit)
	a.Rels = tableMap(f.RelKeys, f.RelVals)
	for _, pk := range f.Providers {
		origin := netsim.ASN(pk >> 32)
		a.Providers[origin] = append(a.Providers[origin], netsim.ASN(uint32(pk)))
	}
	return a
}

// tableMap is the map a sorted table's parallel slices stand for.
func tableMap[K comparable, V any](keys []K, vals []V) map[K]V {
	m := make(map[K]V, len(keys))
	for i, k := range keys {
		m[k] = vals[i]
	}
	return m
}

// keySet is the set a sorted key slice stands for.
func keySet(keys []uint64) map[uint64]bool {
	m := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		m[k] = true
	}
	return m
}

// Validate checks the structural invariants every accessor relies on:
// consistent array lengths, a monotone CSR, in-range cluster IDs, and
// sorted key tables. OpenFlat runs it by default so a truncated or
// hand-edited file fails fast instead of answering garbage.
func (f *Flat) Validate() error {
	n := int(f.NumClusters)
	if n < 0 {
		return fmt.Errorf("atlas: flat: negative cluster count %d", n)
	}
	if len(f.ClusterAS) != n {
		return fmt.Errorf("atlas: flat: ClusterAS has %d entries, want %d", len(f.ClusterAS), n)
	}
	if len(f.EdgeStart) != n+1 {
		return fmt.Errorf("atlas: flat: EdgeStart has %d entries, want %d", len(f.EdgeStart), n+1)
	}
	ne := f.NumEdges()
	if n > 0 && (f.EdgeStart[0] != 0 || int(f.EdgeStart[n]) != ne) {
		return fmt.Errorf("atlas: flat: CSR bounds [%d,%d] do not span %d edges", f.EdgeStart[0], f.EdgeStart[n], ne)
	}
	for w := 0; w < n; w++ {
		if f.EdgeStart[w] > f.EdgeStart[w+1] {
			return fmt.Errorf("atlas: flat: CSR not monotone at cluster %d", w)
		}
	}
	for _, lens := range []struct {
		name string
		got  int
	}{
		{"EdgeLat", len(f.EdgeLat)}, {"EdgeLoss", len(f.EdgeLoss)},
		{"EdgePlanes", len(f.EdgePlanes)}, {"EdgeFlags", len(f.EdgeFlags)},
		{"EdgeRel", len(f.EdgeRel)}, {"EdgeFromAS", len(f.EdgeFromAS)},
		{"EdgeToAS", len(f.EdgeToAS)}, {"EdgeToDeg", len(f.EdgeToDeg)},
	} {
		if lens.got != ne {
			return fmt.Errorf("atlas: flat: %s has %d entries, want %d edges", lens.name, lens.got, ne)
		}
	}
	for _, from := range f.EdgeFrom {
		if from < 0 || int(from) >= n {
			return fmt.Errorf("atlas: flat: edge source cluster %d outside [0,%d)", from, n)
		}
	}
	if len(f.PrefixClVals) != len(f.PrefixClKeys) || len(f.PrefixASVals) != len(f.PrefixASKeys) ||
		len(f.IfaceVals) != len(f.IfaceKeys) || len(f.RelVals) != len(f.RelKeys) ||
		len(f.DegVals) != len(f.DegKeys) || len(f.LossVals) != len(f.LossKeys) ||
		len(f.AdjustGlobal) != len(f.AdjustKeys) || len(f.AdjustLocal) != len(f.AdjustKeys) {
		return fmt.Errorf("atlas: flat: key/value table length mismatch")
	}
	for i, cl := range f.PrefixClVals {
		if cl < 0 || int(cl) >= n {
			return fmt.Errorf("atlas: flat: prefix %v attached to cluster %d outside [0,%d)", f.PrefixClKeys[i], cl, n)
		}
	}
	for i, cl := range f.IfaceVals {
		if cl < 0 || int(cl) >= n {
			return fmt.Errorf("atlas: flat: iface prefix %v in cluster %d outside [0,%d)", f.IfaceKeys[i], cl, n)
		}
	}
	if err := prefixesSorted("PrefixCluster", f.PrefixClKeys); err != nil {
		return err
	}
	if err := prefixesSorted("PrefixAS", f.PrefixASKeys); err != nil {
		return err
	}
	if err := prefixesSorted("IfaceCluster", f.IfaceKeys); err != nil {
		return err
	}
	if err := prefixesSorted("Adjust", f.AdjustKeys); err != nil {
		return err
	}
	for _, set := range []struct {
		name string
		keys []uint64
	}{
		{"Tuples", f.Tuples}, {"Prefs", f.Prefs}, {"Providers", f.Providers},
		{"Rels", f.RelKeys}, {"LateExit", f.LateExit}, {"Loss", f.LossKeys},
	} {
		for i := 1; i < len(set.keys); i++ {
			if set.keys[i-1] >= set.keys[i] {
				return fmt.Errorf("atlas: flat: %s keys not strictly sorted at %d", set.name, i)
			}
		}
	}
	for i := 1; i < len(f.DegKeys); i++ {
		if f.DegKeys[i-1] >= f.DegKeys[i] {
			return fmt.Errorf("atlas: flat: ASDegree keys not strictly sorted at %d", i)
		}
	}
	return nil
}

func prefixesSorted(name string, keys []netsim.Prefix) error {
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			return fmt.Errorf("atlas: flat: %s keys not strictly sorted at %d", name, i)
		}
	}
	return nil
}
