package atlas

import (
	"cmp"
	"slices"
	"time"

	"inano/internal/cluster"
	"inano/internal/netsim"
)

// RollStats reports what one Flat.Apply changed — the answer to "what did
// last night's day roll do?" without diffing two atlases.
type RollStats struct {
	// FromDay and ToDay are the delta's bounds; they are equal for an
	// intra-day correction push.
	FromDay, ToDay int
	// LinksAdded, LinksRemoved and LinksRetagged count links that appeared,
	// disappeared, or kept their endpoints but changed latency or planes.
	LinksAdded, LinksRemoved, LinksRetagged int
	// LossSet counts loss annotations added or revised, LossCleared those
	// removed.
	LossSet, LossCleared int
	// TuplesAdded and TuplesRemoved count 3-tuples entering and leaving the
	// observed-export set.
	TuplesAdded, TuplesRemoved int
	// PrefixesRehomed counts prefix attachment entries added, moved to
	// another cluster, or removed.
	PrefixesRehomed int
	// ClustersAdded is the growth of the cluster ID space.
	ClustersAdded int
	// LocalDecayed counts client-local corrections halved by the roll,
	// LocalDropped those that fell under AdjustDecayEpsilonMS and went.
	LocalDecayed, LocalDropped int
	// Duration is the wall time Apply took.
	Duration time.Duration
}

// LinksChanged is the number of links the roll added, removed or re-tagged.
func (s RollStats) LinksChanged() int {
	return s.LinksAdded + s.LinksRemoved + s.LinksRetagged
}

// Apply returns f with d applied — the same Flat, field for field, that
// Compile(f.Inflate().Apply(d)) builds — in one sorted-merge pass over the
// flat tables, with no map, Clone or Compile on the way: a day roll costs
// a merge proportional to the atlas's bytes, not a rebuild of its maps.
//
// f is not modified and the result shares no memory with it, so f may be
// a read-only file mapping that is closed once the result is published.
// f must satisfy Validate, as every Flat from Compile, ReadFlat, OpenFlat
// or Apply does. d is untrusted: out-of-range cluster IDs are skipped as
// Compile skips them, unsorted or duplicated key lists are put in order
// first, and the result always satisfies Validate.
func (f *Flat) Apply(d *Delta) (*Flat, RollStats) {
	start := time.Now()
	st := RollStats{FromDay: d.FromDay, ToDay: d.ToDay}
	nf := &Flat{Day: int32(d.ToDay)}
	nf.ClusterAS = append(cloneTable(f.ClusterAS), d.AddClusterAS...)
	nf.NumClusters = max(f.NumClusters, int32(len(nf.ClusterAS)))
	st.ClustersAdded = int(nf.NumClusters - f.NumClusters)

	// The monthly datasets do not travel in a delta.
	nf.PrefixASKeys, nf.PrefixASVals = cloneTable(f.PrefixASKeys), cloneTable(f.PrefixASVals)
	nf.Prefs = cloneTable(f.Prefs)
	nf.Providers = cloneTable(f.Providers)
	nf.RelKeys, nf.RelVals = cloneTable(f.RelKeys), cloneTable(f.RelVals)
	nf.LateExit = cloneTable(f.LateExit)
	nf.DegKeys, nf.DegVals = cloneTable(f.DegKeys), cloneTable(f.DegVals)

	var added, changed, removed int
	upLossK, upLossV := sortedTable(d.UpLoss)
	nf.LossKeys, nf.LossVals, added, changed, st.LossCleared =
		mergeTable(f.LossKeys, f.LossVals, strictKeys(d.DelLoss), upLossK, upLossV)
	st.LossSet = added + changed
	nf.Tuples, _, st.TuplesAdded, _, st.TuplesRemoved =
		mergeTable[uint64, struct{}](f.Tuples, nil, strictKeys(d.DelTuples), strictKeys(d.AddTuples), nil)
	upK, upV := clusterUpserts(d.UpPrefixCluster, nf.NumClusters)
	nf.PrefixClKeys, nf.PrefixClVals, added, changed, removed =
		mergeTable(f.PrefixClKeys, f.PrefixClVals, prefixKeys(d.DelPrefixCluster), upK, upV)
	st.PrefixesRehomed = added + changed + removed
	upK, upV = clusterUpserts(d.UpIfaceCluster, nf.NumClusters)
	nf.IfaceKeys, nf.IfaceVals, _, _, _ =
		mergeTable(f.IfaceKeys, f.IfaceVals, prefixKeys(d.DelIfaceCluster), upK, upV)

	f.mergeAdjust(nf, d, &st)
	f.mergeLinks(nf, d, &st)
	// The monthly tables' indexes are f's own, shared as they stand.
	nf.idx = f.idx
	nf.buildDailyIndex()
	st.Duration = time.Since(start)
	return nf, st
}

// cloneTable copies s into memory of its own; the copy is never nil, as no
// table Compile builds is.
func cloneTable[T any](s []T) []T {
	return append(make([]T, 0, len(s)), s...)
}

// strictKeys returns keys in strictly ascending order: as given when they
// already are (every decoded or diffed delta's), else a sorted copy
// without duplicates.
func strictKeys[K cmp.Ordered](keys []K) []K {
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			s := slices.Clone(keys)
			slices.Sort(s)
			return slices.Compact(s)
		}
	}
	return keys
}

// prefixKeys narrows a delta's deletion list to prefixes as map Apply's
// netsim.Prefix(k) does, strictly ascending.
func prefixKeys(keys []uint64) []netsim.Prefix {
	out := make([]netsim.Prefix, len(keys))
	for i, k := range keys {
		out[i] = netsim.Prefix(k)
	}
	return strictKeys(out)
}

// clusterUpserts lays a delta's prefix -> cluster upserts out in key order,
// without those that would attach outside the cluster space [0, n).
func clusterUpserts(m map[netsim.Prefix]cluster.ClusterID, n int32) ([]netsim.Prefix, []cluster.ClusterID) {
	keys, vals := sortedTable(m)
	w := 0
	for i, c := range vals {
		if c < 0 || int32(c) >= n {
			continue
		}
		keys[w], vals[w] = keys[i], c
		w++
	}
	return keys[:w], vals[:w]
}

// mergeTable returns the sorted table keys/vals without the keys in dels
// and with the entries of upKeys/upVals upserted; an upsert wins over a
// deletion of the same key, as map Apply's delete-then-set does. Every key
// slice is strictly ascending. vals and upVals are nil for a key-only set,
// and so is outV then. The counts are of entries added, entries whose
// value an upsert changed, and entries removed.
func mergeTable[K cmp.Ordered, V comparable](keys []K, vals []V, dels, upKeys []K, upVals []V) (outK []K, outV []V, added, changed, removed int) {
	outK = make([]K, len(keys)+len(upKeys))
	if vals != nil || upVals != nil {
		outV = make([]V, len(outK))
	}
	o, ui, di := 0, 0, 0
	for i, k := range keys {
		for ; ui < len(upKeys) && upKeys[ui] < k; ui++ {
			outK[o] = upKeys[ui]
			if outV != nil {
				outV[o] = upVals[ui]
			}
			o++
			added++
		}
		if ui < len(upKeys) && upKeys[ui] == k {
			outK[o] = k
			if outV != nil {
				outV[o] = upVals[ui]
				if vals[i] != upVals[ui] {
					changed++
				}
			}
			o++
			ui++
			continue
		}
		for di < len(dels) && dels[di] < k {
			di++
		}
		if di < len(dels) && dels[di] == k {
			removed++
			continue
		}
		outK[o] = k
		if outV != nil {
			outV[o] = vals[i]
		}
		o++
	}
	end := o + copy(outK[o:], upKeys[ui:])
	if outV != nil {
		copy(outV[o:], upVals[ui:])
		outV = outV[:end]
	}
	return outK[:end], outV, added + end - o, changed, removed
}

// mergeAdjust writes nf's correction table: f's shipped terms without
// d.DelAdjust and with d.UpAdjust set, beside f's client-local terms —
// halved, and dropped under AdjustDecayEpsilonMS, when the delta crosses
// a day — with d.LocalAdjust set after that. A key stays while either term
// is carried; a set carries its key even at value zero, as a map entry
// would.
func (f *Flat) mergeAdjust(nf *Flat, d *Delta, st *RollStats) {
	upK, upV := sortedTable(d.UpAdjust)
	locK, locV := sortedTable(d.LocalAdjust)
	dels := prefixKeys(d.DelAdjust)
	decay := d.ToDay != d.FromDay
	size := len(f.AdjustKeys) + len(upK) + len(locK)
	keys := make([]netsim.Prefix, 0, size)
	global := make([]float32, 0, size)
	local := make([]float32, 0, size)
	// at reports whether the next unread key of ks is k.
	at := func(ks []netsim.Prefix, i int, k netsim.Prefix) bool { return i < len(ks) && ks[i] == k }
	i, ui, li, di := 0, 0, 0, 0
	for i < len(f.AdjustKeys) || ui < len(upK) || li < len(locK) {
		k := ^netsim.Prefix(0)
		if i < len(f.AdjustKeys) {
			k = f.AdjustKeys[i]
		}
		if ui < len(upK) {
			k = min(k, upK[ui])
		}
		if li < len(locK) {
			k = min(k, locK[li])
		}
		var g, l float32
		if at(f.AdjustKeys, i, k) {
			g, l = f.AdjustGlobal[i], f.AdjustLocal[i]
			i++
			for di < len(dels) && dels[di] < k {
				di++
			}
			if at(dels, di, k) {
				g = 0
			}
			if decay && l != 0 {
				l /= 2
				if l < AdjustDecayEpsilonMS && l > -AdjustDecayEpsilonMS {
					l = 0
					st.LocalDropped++
				} else {
					st.LocalDecayed++
				}
			}
		}
		keep := g != 0 || l != 0
		if at(upK, ui, k) {
			g, keep = upV[ui], true
			ui++
		}
		if at(locK, li, k) {
			l, keep = locV[li], true
			li++
		}
		if keep {
			keys, global, local = append(keys, k), append(global, g), append(local, l)
		}
	}
	nf.AdjustKeys, nf.AdjustGlobal, nf.AdjustLocal = keys, global, local
}

// mergeLinks writes nf's CSR link table: f's edges without d.DelLinks and
// with d.UpLinks upserted (an upsert wins over a deletion of its key),
// every bucket in From order — the order map Apply's re-sort and Compile's
// counting sort leave. A carried edge keeps its flags (its clusters' ASes
// cannot change in a delta); a new edge gets them from f's own late-exit
// table, which no delta touches. EdgeLoss is rewritten from nf's already
// merged loss table.
func (f *Flat) mergeLinks(nf *Flat, d *Delta, st *RollStats) {
	n := int(nf.NumClusters)
	inRange := func(c cluster.ClusterID) bool { return c >= 0 && int(c) < n }

	// In-range upserts, counting-sorted by destination cluster: upStart[w]
	// bounds bucket w's, still in the delta's own order.
	upStart := make([]uint32, n+1)
	m := 0
	for _, l := range d.UpLinks {
		if inRange(l.From) && inRange(l.To) {
			upStart[l.To+1]++
			m++
		}
	}
	for w := 0; w < n; w++ {
		upStart[w+1] += upStart[w]
	}
	ups := make([]Link, m)
	next := slices.Clone(upStart[:n])
	for _, l := range d.UpLinks {
		if inRange(l.From) && inRange(l.To) {
			ups[next[l.To]] = l
			next[l.To]++
		}
	}
	// Deletions keyed the way the CSR is ordered: destination, then source.
	dels := make([]uint64, len(d.DelLinks))
	for i, k := range d.DelLinks {
		dels[i] = k<<32 | k>>32 // LinkKey(from, to) -> LinkKey(to, from)
	}
	slices.Sort(dels)

	size := f.NumEdges() + m
	start := make([]uint32, n+1)
	from := make([]cluster.ClusterID, size)
	lat := make([]float32, size)
	planes := make([]uint8, size)
	flags := make([]uint8, size)
	o := 0
	carry := func(ei uint32, latMS float32, pl uint8) {
		from[o], lat[o], planes[o], flags[o] = f.EdgeFrom[ei], latMS, pl, f.EdgeFlags[ei]
		o++
	}
	create := func(l Link) {
		from[o], lat[o], planes[o] = l.From, l.LatencyMS, l.Planes
		flags[o] = f.edgeFlags(nf.ClusterAS[l.From], nf.ClusterAS[l.To])
		o++
		st.LinksAdded++
	}

	order := f.fromOrder()
	di := 0
	for w := 0; w < n; w++ {
		start[w] = uint32(o)
		// This bucket's upserts in From order, the last of a repeated key
		// (what a map of them would hold) standing for the key.
		up := ups[upStart[w]:upStart[w+1]]
		slices.SortStableFunc(up, func(a, b Link) int { return cmp.Compare(a.From, b.From) })
		ui := 0
		nextUp := func() bool {
			for ui+1 < len(up) && up[ui+1].From == up[ui].From {
				ui++
			}
			return ui < len(up)
		}
		var lo, hi uint32
		if w < int(f.NumClusters) {
			lo, hi = f.EdgeStart[w], f.EdgeStart[w+1]
		}
		for k := lo; k < hi; k++ {
			ei := k
			if order != nil {
				ei = order[k]
			}
			src := f.EdgeFrom[ei]
			for ; nextUp() && up[ui].From < src; ui++ {
				create(up[ui])
			}
			if nextUp() && up[ui].From == src {
				if up[ui].LatencyMS != f.EdgeLat[ei] || up[ui].Planes != f.EdgePlanes[ei] {
					st.LinksRetagged++
				}
				carry(ei, up[ui].LatencyMS, up[ui].Planes)
				ui++
				continue
			}
			key := LinkKey(cluster.ClusterID(w), src)
			for di < len(dels) && dels[di] < key {
				di++
			}
			if di < len(dels) && dels[di] == key {
				st.LinksRemoved++
				continue
			}
			carry(ei, f.EdgeLat[ei], f.EdgePlanes[ei])
		}
		for ; nextUp(); ui++ {
			create(up[ui])
		}
	}
	start[n] = uint32(o)

	loss := make([]float32, o)
	for i, k := range nf.LossKeys {
		src, to := cluster.ClusterID(uint32(k>>32)), int(uint32(k))
		if to >= n {
			continue
		}
		bucket := from[start[to]:start[to+1]]
		j, _ := slices.BinarySearch(bucket, src)
		for ; j < len(bucket) && bucket[j] == src; j++ {
			loss[int(start[to])+j] = nf.LossVals[i]
		}
	}

	nf.EdgeStart, nf.EdgeFrom, nf.EdgeLat, nf.EdgeLoss = start, from[:o], lat[:o], loss
	nf.EdgePlanes, nf.EdgeFlags = planes[:o], flags[:o]
}

// fromOrder returns nil when every CSR bucket of f is already in ascending
// From order — every atlas the builder, the codec or Apply produced — and
// otherwise the edge indexes permuted so that each bucket is (stably).
func (f *Flat) fromOrder() []uint32 {
	sorted := true
	for w := 0; w < int(f.NumClusters) && sorted; w++ {
		sorted = slices.IsSorted(f.EdgeFrom[f.EdgeStart[w]:f.EdgeStart[w+1]])
	}
	if sorted {
		return nil
	}
	order := make([]uint32, f.NumEdges())
	for i := range order {
		order[i] = uint32(i)
	}
	for w := 0; w < int(f.NumClusters); w++ {
		slices.SortStableFunc(order[f.EdgeStart[w]:f.EdgeStart[w+1]], func(a, b uint32) int {
			return cmp.Compare(f.EdgeFrom[a], f.EdgeFrom[b])
		})
	}
	return order
}
