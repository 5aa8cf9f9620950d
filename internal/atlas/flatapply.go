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
	// LocalDropped those that fell under adjustDecayEpsilonMS and went.
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
// or Apply does. d is untrusted and is not modified: a delta that names
// another base than f is refused with ErrDeltaBase, and one with an index
// past f's tables with ErrDeltaIndex; out-of-range cluster IDs are skipped
// as Compile skips them, unsorted or duplicated key lists are put in order
// first, and the result always satisfies Validate.
//
// A client's local merge (see Delta.LocalAdjust) is recorded as such: the
// links it creates and the clusters it appends stay out of the base every
// later delta names. Any other delta is the builder's: it names clusters
// only below the shipped count, its growth goes in there, and the local
// clusters move up past it (see ShippedClusters). There the result is not
// the map path's, which knows nothing local.
func (f *Flat) Apply(d *Delta) (*Flat, RollStats, error) {
	start := time.Now()
	local := d.local()
	d, err := d.resolve(f.deltaBase)
	if err != nil {
		return nil, RollStats{}, err
	}
	st := RollStats{FromDay: d.FromDay, ToDay: d.ToDay}
	base, grow := f, d.AddClusterAS
	if !local && f.localClusters > 0 && len(grow) > 0 {
		base, grow = f.withGrowth(grow), nil
	}
	nf := &Flat{Day: int32(d.ToDay), localClusters: base.localClusters}
	nf.ClusterAS = append(cloneTable(base.ClusterAS), grow...)
	nf.NumClusters = max(base.NumClusters, int32(len(nf.ClusterAS)))
	st.ClustersAdded = int(nf.NumClusters - f.NumClusters)
	// The cluster space d's IDs may name: all of it for a local merge, the
	// shipped clusters for the builder's delta.
	space := nf.NumClusters
	if local {
		nf.localClusters += nf.NumClusters - base.NumClusters
	} else {
		space -= nf.localClusters
	}

	// The monthly datasets do not travel in a delta.
	nf.PrefixASKeys, nf.PrefixASVals = cloneTable(base.PrefixASKeys), cloneTable(base.PrefixASVals)
	nf.Prefs = cloneTable(base.Prefs)
	nf.Providers = cloneTable(base.Providers)
	nf.RelKeys, nf.RelVals = cloneTable(base.RelKeys), cloneTable(base.RelVals)
	nf.LateExit = cloneTable(base.LateExit)
	nf.DegKeys, nf.DegVals = cloneTable(base.DegKeys), cloneTable(base.DegVals)

	var added, changed, removed int
	upLossK, upLossV := sortedTable(d.UpLoss)
	nf.LossKeys, nf.LossVals, added, changed, st.LossCleared =
		mergeTable(base.LossKeys, base.LossVals, strictKeys(d.DelLoss), upLossK, upLossV)
	st.LossSet = added + changed
	nf.Tuples, _, st.TuplesAdded, _, st.TuplesRemoved =
		mergeTable[uint64, struct{}](base.Tuples, nil, strictKeys(d.DelTuples), strictKeys(d.AddTuples), nil)
	upK, upV := clusterUpserts(d.UpPrefixCluster, space)
	nf.PrefixClKeys, nf.PrefixClVals, added, changed, removed =
		mergeTable(base.PrefixClKeys, base.PrefixClVals, prefixKeys(d.DelPrefixCluster), upK, upV)
	st.PrefixesRehomed = added + changed + removed
	upK, upV = clusterUpserts(d.UpIfaceCluster, space)
	nf.IfaceKeys, nf.IfaceVals, _, _, _ =
		mergeTable(base.IfaceKeys, base.IfaceVals, prefixKeys(d.DelIfaceCluster), upK, upV)

	base.mergeAdjust(nf, d, &st)
	base.mergeLinks(nf, d, space, local, &st)
	// The monthly tables' indexes are f's own, shared as they stand.
	nf.idx = f.idx
	nf.buildDailyIndex()
	st.Duration = time.Since(start)
	return nf, st, nil
}

// ShippedClusters returns the size of the cluster space the builder
// shipped: NumClusters without the clusters local merges appended after it.
// A local cluster's index past it is what a client records of it: a day
// roll that grows the shipped space moves the local clusters up
// (withGrowth) and leaves their indices as they were.
func (f *Flat) ShippedClusters() int32 { return f.NumClusters - f.localClusters }

// deltaBase returns the base a delta applied to f is coded against (see
// baseName): f itself, unless a local merge created links; then a Flat of
// f's link table without them, and of copies of its loss keys and tuples.
func (f *Flat) deltaBase() *Flat {
	if len(f.localLinks) == 0 {
		return f
	}
	n := f.ShippedClusters()
	b := &Flat{Day: f.Day, NumClusters: n, LossKeys: slices.Clone(f.LossKeys), Tuples: slices.Clone(f.Tuples)}
	b.EdgeStart = make([]uint32, n+1)
	b.EdgeFrom, b.EdgeLat = make([]cluster.ClusterID, 0, f.EdgeStart[n]), make([]float32, 0, f.EdgeStart[n])
	li := 0
	for w := range n {
		b.EdgeStart[w] = uint32(len(b.EdgeFrom))
		for ei := f.EdgeStart[w]; ei < f.EdgeStart[w+1]; ei++ {
			k := LinkKey(cluster.ClusterID(w), f.EdgeFrom[ei])
			if li = seek(f.localLinks, li, k); li < len(f.localLinks) && f.localLinks[li] == k {
				continue
			}
			b.EdgeFrom, b.EdgeLat = append(b.EdgeFrom, f.EdgeFrom[ei]), append(b.EdgeLat, f.EdgeLat[ei])
		}
	}
	b.EdgeStart[n] = uint32(len(b.EdgeFrom))
	return b
}

// withGrowth returns f with the builder's new clusters, of ASes as, put in
// at the shipped count and f's local clusters renumbered up past them in
// every table that names a cluster: what the builder's delta that grows the
// space is merged into when f holds local clusters. The renumbering keeps
// every table in order (it moves the local IDs up together), and the tables
// that name no cluster are f's own.
func (f *Flat) withGrowth(as []netsim.ASN) *Flat {
	s, k := f.ShippedClusters(), int32(len(as))
	up := func(c cluster.ClusterID) cluster.ClusterID {
		if int32(c) >= s {
			return c + cluster.ClusterID(k)
		}
		return c
	}
	upKey := func(key uint64) uint64 {
		return LinkKey(up(cluster.ClusterID(uint32(key>>32))), up(cluster.ClusterID(uint32(key))))
	}
	g := *f
	g.NumClusters += k
	g.ClusterAS = slices.Concat(f.ClusterAS[:s], as, f.ClusterAS[s:])
	g.EdgeStart = slices.Concat(f.EdgeStart[:s], slices.Repeat(f.EdgeStart[s:s+1], int(k)), f.EdgeStart[s:])
	g.EdgeFrom = mapTable(f.EdgeFrom, up)
	g.PrefixClVals = mapTable(f.PrefixClVals, up)
	g.IfaceVals = mapTable(f.IfaceVals, up)
	g.LossKeys = mapTable(f.LossKeys, upKey)
	g.localLinks = mapTable(f.localLinks, upKey)
	return &g
}

// mapTable returns a copy of s with fn applied to each entry.
func mapTable[T any](s []T, fn func(T) T) []T {
	out := make([]T, len(s))
	for i, v := range s {
		out[i] = fn(v)
	}
	return out
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
// without those that would attach outside the cluster space [0, n) they may
// name.
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
// halved, and dropped under adjustDecayEpsilonMS, when the delta crosses
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
				if l < adjustDecayEpsilonMS && l > -adjustDecayEpsilonMS {
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
// with d.UpLinks upserted (an upsert wins over a deletion of its key): a
// merge of each of f's buckets, in strictly ascending From order as
// Validate holds them, with that bucket's upserts, so every bucket of nf
// is in that order too. Upserts name clusters below space. A carried edge
// keeps its flags (its clusters' ASes cannot change in a delta); a new edge
// gets them from f's own late-exit table, which no delta touches. EdgeLoss
// is rewritten from nf's already merged loss table. nf.localLinks is f's,
// without the links removed, with those a local merge creates, and without
// those the builder's delta upserts: the builder has shipped them now.
func (f *Flat) mergeLinks(nf *Flat, d *Delta, space int32, local bool, st *RollStats) {
	n := int(nf.NumClusters)
	inRange := func(c cluster.ClusterID) bool { return c >= 0 && int32(c) < space }

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
	o, li := 0, 0 // li: where the last carried edge's key stands in f.localLinks
	carry := func(w int, ei uint32, latMS float32, pl uint8, upserted bool) {
		from[o], lat[o], planes[o], flags[o] = f.EdgeFrom[ei], latMS, pl, f.EdgeFlags[ei]
		o++
		if len(f.localLinks) == 0 {
			return
		}
		k := LinkKey(cluster.ClusterID(w), f.EdgeFrom[ei])
		if li = seek(f.localLinks, li, k); li < len(f.localLinks) && f.localLinks[li] == k && (local || !upserted) {
			nf.localLinks = append(nf.localLinks, k)
		}
	}
	create := func(l Link) {
		from[o], lat[o], planes[o] = l.From, l.LatencyMS, l.Planes
		flags[o] = f.edgeFlags(nf.ClusterAS[l.From], nf.ClusterAS[l.To])
		o++
		st.LinksAdded++
		if local {
			nf.localLinks = append(nf.localLinks, LinkKey(l.To, l.From))
		}
	}

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
		for ei := lo; ei < hi; ei++ {
			src := f.EdgeFrom[ei]
			for ; nextUp() && up[ui].From < src; ui++ {
				create(up[ui])
			}
			if nextUp() && up[ui].From == src {
				if up[ui].LatencyMS != f.EdgeLat[ei] || up[ui].Planes != f.EdgePlanes[ei] {
					st.LinksRetagged++
				}
				carry(w, ei, up[ui].LatencyMS, up[ui].Planes, true)
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
			carry(w, ei, f.EdgeLat[ei], f.EdgePlanes[ei], false)
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
		if j, ok := slices.BinarySearch(from[start[to]:start[to+1]], src); ok {
			loss[int(start[to])+j] = nf.LossVals[i]
		}
	}

	nf.EdgeStart, nf.EdgeFrom, nf.EdgeLat, nf.EdgeLoss = start, from[:o], lat[:o], loss
	nf.EdgePlanes, nf.EdgeFlags = planes[:o], flags[:o]
}
