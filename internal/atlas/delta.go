package atlas

import (
	"bytes"
	"cmp"
	"compress/gzip"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sort"

	"inano/internal/cluster"
	"inano/internal/netsim"
)

// adjustDecayEpsilonMS is the magnitude below which a decayed client
// residual correction is dropped entirely on a day roll (see Apply);
// it matches the feedback merge's materiality threshold for learning a
// correction in the first place.
const adjustDecayEpsilonMS = 0.5

// Delta is the day-over-day update shipped to clients. Per §6.2.3 only the
// fast-changing datasets travel daily — links (with re-annotated
// latencies), loss rates, 3-tuples, and the aggregated client corrections;
// everything else refreshes with the monthly full atlas.
type Delta struct {
	// FromDay and ToDay bound the update: a client holding FromDay's
	// atlas applies the delta to reach ToDay.
	FromDay, ToDay int

	// UpLinks adds new links or re-annotates existing ones.
	UpLinks []Link
	// DelLinks removes links by LinkKey.
	DelLinks []uint64

	// UpLoss sets loss rates (keyed by LinkKey); DelLoss clears them.
	UpLoss  map[uint64]float32
	DelLoss []uint64 // LinkKeys whose loss annotation is cleared

	// AddTuples and DelTuples adjust the observed 3-tuple set (PackTriple
	// keys).
	AddTuples []uint64
	DelTuples []uint64

	// UpAdjust sets aggregated per-prefix corrections (GlobalAdjustMS);
	// DelAdjust clears them — a destination nobody reports on any more
	// sheds its correction with the next delta instead of keeping it
	// forever.
	UpAdjust  map[netsim.Prefix]float32
	DelAdjust []uint64 // prefixes whose correction is cleared

	// AddClusterAS grows the cluster space: the owning ASes of the
	// clusters the new day's registry allocated beyond the old day's
	// NumClusters. Registry-stabilized clustering (cluster.Stabilize)
	// keeps surviving IDs identical day over day, so growth is always an
	// append. Without it, delta-shipped links into new clusters — the
	// crowd-observed structure fold among them — would be dead on arrival.
	AddClusterAS []netsim.ASN

	// UpPrefixCluster re-homes or adds prefix attachment entries;
	// DelPrefixCluster (prefix keys) removes them. Attachment entries
	// learned from uploaded hops ride here, and day-over-day re-homing no
	// longer waits for the monthly full atlas.
	UpPrefixCluster  map[netsim.Prefix]cluster.ClusterID
	DelPrefixCluster []uint64

	// UpIfaceCluster/DelIfaceCluster keep the hop-placement table
	// (IfaceCluster) current on delta-following daemons, so an
	// aggregating inanod can clusterize uploaded hops against today's
	// registry without waiting for a full atlas.
	UpIfaceCluster  map[netsim.Prefix]cluster.ClusterID
	DelIfaceCluster []uint64

	// LocalAdjust sets client-local residual corrections (AdjustMS), after
	// any day-roll decay. Only the client's own traceroute merge fills it:
	// like AdjustMS itself it never travels, so Encode does not write it.
	// A delta that carries it and names no base is a client's local merge:
	// Flat.Apply keeps the links and clusters it creates out of the base a
	// later delta names (see Flat.ShippedClusters).
	LocalAdjust map[netsim.Prefix]float32

	// base names the atlas the delta was diffed against or, decoded, the
	// atlas its indices point into; Apply refuses the delta on any other.
	// A hand-built delta names none and is applied by its keys alone.
	base *baseName
	// from is Diff's base, Compile(old): what Encode codes its indices
	// against.
	from *Flat
	// refs are a decoded delta's removals and re-annotations, still indices
	// into the base's tables: Apply resolves them.
	refs *deltaRefs
}

// Refusals of a delta at Apply.
var (
	// ErrDeltaBase refuses a delta coded against another atlas than the one
	// it is applied to: another day, shipped cluster count or index spaces.
	ErrDeltaBase = errors.New("atlas: delta is coded against another base atlas")
	// ErrDeltaIndex refuses a delta with an index past the end of the base
	// table it points into.
	ErrDeltaIndex = errors.New("atlas: delta index past the end of its base table")
	// errNoBase refuses to encode a delta with nothing to code it against.
	errNoBase = errors.New("atlas: encoding a delta needs its base: diff it, or decode it")
)

// baseName is how a delta names the atlas it is coded against: the day, the
// shipped cluster count and a CRC-32 of the three index spaces.
type baseName struct {
	day      int
	clusters int32
	crc      uint32
}

// A delta is coded against three index spaces of its base's serving form:
// the CSR link table over the shipped clusters (by To, then From, each
// edge's latency beside, which a re-annotation is a difference from),
// LossKeys and Tuples. A base is a Flat whose tables hold them: a client's
// own Flat (Flat.deltaBase), or Compile's of a map atlas.

// baseName names b: a CRC-32 of the little-endian bytes of its shipped
// bucket bounds, their sources, its loss keys and its tuples, in that order.
func (b *Flat) baseName() baseName {
	n := b.ShippedClusters()
	crc := crc32.Update(0, crc32.IEEETable, leBytes(b.EdgeStart[:n+1]))
	crc = crc32.Update(crc, crc32.IEEETable, leBytes(b.EdgeFrom[:b.EdgeStart[n]]))
	crc = crc32.Update(crc, crc32.IEEETable, leBytes(b.LossKeys))
	crc = crc32.Update(crc, crc32.IEEETable, leBytes(b.Tuples))
	return baseName{day: int(b.Day), clusters: n, crc: crc}
}

// baseEdges returns how many links b ships: the edges of its shipped
// buckets, each an index a delta may name.
func (b *Flat) baseEdges() uint64 { return uint64(b.EdgeStart[b.ShippedClusters()]) }

// baseEdge returns the index of the shipped link from->to in b's edge order,
// and whether b has it.
func (b *Flat) baseEdge(from, to cluster.ClusterID) (uint64, bool) {
	if to < 0 || int32(to) >= b.ShippedClusters() {
		return 0, false
	}
	lo, hi := b.EdgeStart[to], b.EdgeStart[to+1]
	j, ok := slices.BinarySearch(b.EdgeFrom[lo:hi], from)
	return uint64(lo) + uint64(j), ok
}

// baseLinks returns a function that gives b's edge i, which must be below
// baseEdges. Asked in ascending order, as a delta's indices come, it
// gallops on from the bucket of the edge before.
func (b *Flat) baseLinks() func(i uint64) Link {
	w := 0
	return func(i uint64) Link {
		w = seek(b.EdgeStart[1:], w, uint32(i+1)) // the first bucket ending past i
		return Link{From: b.EdgeFrom[i], To: cluster.ClusterID(w), LatencyMS: b.EdgeLat[i]}
	}
}

// deltaRefs are the records of a delta that name their base's entries by
// index: links removed and re-annotated (edge indices; a re-annotation
// carries its quantised latency as a difference from the base edge's, and
// its planes), loss annotations removed (LossKeys indices) and 3-tuples
// removed (Tuples indices).
type deltaRefs struct {
	delLinks, delLoss, delTuples []uint64
	reLinks                      []uint64
	reLat                        []int64
	rePlanes                     []uint8
}

func (r *deltaRefs) entries() int {
	if r == nil {
		return 0
	}
	return len(r.delLinks) + len(r.delLoss) + len(r.delTuples) + len(r.reLinks)
}

// coded returns what Encode writes of d's link, loss and tuple changes coded
// against the base b: the removals and the re-annotations of base links as
// indices, and the upserts of links b lacks, which stay keyed. A removal of
// a key b lacks removes nothing, and is left out.
func coded(b *Flat, d *Delta) (*deltaRefs, []Link) {
	refs := &deltaRefs{}
	type re struct {
		i uint64
		l Link
	}
	var res []re
	var news []Link
	for _, l := range d.UpLinks {
		if i, ok := b.baseEdge(l.From, l.To); ok {
			res = append(res, re{i, l})
		} else {
			news = append(news, l)
		}
	}
	// The last upsert of an edge stands for it, as Apply keeps it.
	slices.SortStableFunc(res, func(x, y re) int { return cmp.Compare(x.i, y.i) })
	for j, r := range res {
		if j+1 < len(res) && res[j+1].i == r.i {
			continue
		}
		refs.reLinks = append(refs.reLinks, r.i)
		refs.reLat = append(refs.reLat, int64(quantLat(r.l.LatencyMS))-int64(quantLat(b.EdgeLat[r.i])))
		refs.rePlanes = append(refs.rePlanes, r.l.Planes)
	}
	for _, k := range d.DelLinks {
		if i, ok := b.baseEdge(cluster.ClusterID(uint32(k>>32)), cluster.ClusterID(uint32(k))); ok {
			refs.delLinks = append(refs.delLinks, i)
		}
	}
	refs.delLoss = indicesIn(b.LossKeys, d.DelLoss)
	refs.delTuples = indicesIn(b.Tuples, d.DelTuples)
	refs.delLinks = slices.Compact(slices.Sorted(slices.Values(refs.delLinks)))
	return refs, news
}

// indicesIn returns where each of keys stands in the sorted table, ascending
// and once each, leaving out a key the table lacks.
func indicesIn(table, keys []uint64) []uint64 {
	var out []uint64
	for _, k := range keys {
		if i, ok := slices.BinarySearch(table, k); ok {
			out = append(out, uint64(i))
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// local reports whether d is a client's own merge (see LocalAdjust).
func (d *Delta) local() bool { return d.LocalAdjust != nil && d.base == nil }

// resolve returns d with every record that names a base entry by index
// turned into its key, against base, which it calls only when d names a
// base: a delta that names none is returned as it is. It refuses a delta
// that names another base than base's, and an index past its table. d is
// not modified: the result is a copy where it differs.
func (d *Delta) resolve(base func() *Flat) (*Delta, error) {
	if d.base == nil {
		return d, nil
	}
	b := base()
	if got := b.baseName(); got != *d.base {
		return nil, fmt.Errorf("%w: it names day %d, %d clusters, spaces %08x; the atlas is day %d, %d clusters, spaces %08x",
			ErrDeltaBase, d.base.day, d.base.clusters, d.base.crc, got.day, got.clusters, got.crc)
	}
	if d.refs.entries() == 0 {
		return d, nil
	}
	r := *d
	r.refs = nil
	r.UpLinks = make([]Link, 0, len(d.refs.reLinks)+len(d.UpLinks))
	link, edges := b.baseLinks(), b.baseEdges()
	for j, i := range d.refs.reLinks {
		if i >= edges {
			return nil, fmt.Errorf("%w: re-annotated link index %d, table of %d", ErrDeltaIndex, i, edges)
		}
		l := link(i)
		q := int64(quantLat(l.LatencyMS)) + d.refs.reLat[j]
		if q < 0 || q >= maxLatUnits {
			return nil, fmt.Errorf("%w: it re-annotates link (%d,%d) to %.2f ms, outside [0, %d) ms", ErrDeltaBase, l.From, l.To, float64(q)/100, maxLatUnits/100)
		}
		l.LatencyMS, l.Planes = unquantLat(uint64(q)), d.refs.rePlanes[j]
		r.UpLinks = append(r.UpLinks, l)
	}
	// The keyed upserts come last: of a key given both ways, they win.
	r.UpLinks = append(r.UpLinks, d.UpLinks...)
	// keys returns keys with the key of each of idx, key(i), after them.
	keys := func(what string, keys, idx []uint64, n uint64, key func(i uint64) uint64) ([]uint64, error) {
		out := append(make([]uint64, 0, len(keys)+len(idx)), keys...)
		for _, i := range idx {
			if i >= n {
				return nil, fmt.Errorf("%w: %s index %d, table of %d", ErrDeltaIndex, what, i, n)
			}
			out = append(out, key(i))
		}
		return out, nil
	}
	var err error
	if r.DelLinks, err = keys("removed link", d.DelLinks, d.refs.delLinks, edges,
		func(i uint64) uint64 { l := link(i); return LinkKey(l.From, l.To) }); err != nil {
		return nil, err
	}
	if r.DelLoss, err = keys("removed loss annotation", d.DelLoss, d.refs.delLoss, uint64(len(b.LossKeys)),
		func(i uint64) uint64 { return b.LossKeys[i] }); err != nil {
		return nil, err
	}
	if r.DelTuples, err = keys("removed 3-tuple", d.DelTuples, d.refs.delTuples, uint64(len(b.Tuples)),
		func(i uint64) uint64 { return b.Tuples[i] }); err != nil {
		return nil, err
	}
	return &r, nil
}

// Diff computes the delta that transforms old's daily datasets into new's.
// Its base is Compile(old): the delta names it, and Encode writes the
// removals and re-annotations as indices into its tables.
func Diff(old, next *Atlas) *Delta {
	d := &Delta{
		FromDay:         old.Day,
		ToDay:           next.Day,
		UpLoss:          make(map[uint64]float32),
		UpAdjust:        make(map[netsim.Prefix]float32),
		UpPrefixCluster: make(map[netsim.Prefix]cluster.ClusterID),
		UpIfaceCluster:  make(map[netsim.Prefix]cluster.ClusterID),
	}

	oldLinks := make(map[uint64]Link, len(old.Links))
	for _, l := range old.Links {
		oldLinks[LinkKey(l.From, l.To)] = l
	}
	for _, l := range next.Links {
		k := LinkKey(l.From, l.To)
		if prev, ok := oldLinks[k]; !ok || prev != l {
			d.UpLinks = append(d.UpLinks, l)
		}
		delete(oldLinks, k)
	}
	for k := range oldLinks {
		d.DelLinks = append(d.DelLinks, k)
	}
	sort.Slice(d.DelLinks, func(i, j int) bool { return d.DelLinks[i] < d.DelLinks[j] })

	for k, v := range next.Loss {
		// Comma-ok: a present-but-zero entry still differs from an
		// absent one.
		if ov, ok := old.Loss[k]; !ok || ov != v {
			d.UpLoss[k] = v
		}
	}
	for k := range old.Loss {
		if _, ok := next.Loss[k]; !ok {
			d.DelLoss = append(d.DelLoss, k)
		}
	}
	sort.Slice(d.DelLoss, func(i, j int) bool { return d.DelLoss[i] < d.DelLoss[j] })

	for k := range next.Tuples {
		if !old.Tuples[k] {
			d.AddTuples = append(d.AddTuples, k)
		}
	}
	for k := range old.Tuples {
		if !next.Tuples[k] {
			d.DelTuples = append(d.DelTuples, k)
		}
	}
	sort.Slice(d.AddTuples, func(i, j int) bool { return d.AddTuples[i] < d.AddTuples[j] })
	sort.Slice(d.DelTuples, func(i, j int) bool { return d.DelTuples[i] < d.DelTuples[j] })

	for p, v := range next.GlobalAdjustMS {
		if ov, ok := old.GlobalAdjustMS[p]; !ok || ov != v {
			d.UpAdjust[p] = v
		}
	}
	for p := range old.GlobalAdjustMS {
		if _, ok := next.GlobalAdjustMS[p]; !ok {
			d.DelAdjust = append(d.DelAdjust, uint64(p))
		}
	}
	sort.Slice(d.DelAdjust, func(i, j int) bool { return d.DelAdjust[i] < d.DelAdjust[j] })

	if next.NumClusters > old.NumClusters {
		lo, hi := old.NumClusters, next.NumClusters
		if hi > len(next.ClusterAS) {
			hi = len(next.ClusterAS) // defensive: malformed atlas
		}
		if lo < hi {
			d.AddClusterAS = append([]netsim.ASN(nil), next.ClusterAS[lo:hi]...)
		}
	}
	for p, c := range next.PrefixCluster {
		if oc, ok := old.PrefixCluster[p]; !ok || oc != c {
			d.UpPrefixCluster[p] = c
		}
	}
	for p := range old.PrefixCluster {
		if _, ok := next.PrefixCluster[p]; !ok {
			d.DelPrefixCluster = append(d.DelPrefixCluster, uint64(p))
		}
	}
	sort.Slice(d.DelPrefixCluster, func(i, j int) bool { return d.DelPrefixCluster[i] < d.DelPrefixCluster[j] })
	for p, c := range next.IfaceCluster {
		if oc, ok := old.IfaceCluster[p]; !ok || oc != c {
			d.UpIfaceCluster[p] = c
		}
	}
	for p := range old.IfaceCluster {
		if _, ok := next.IfaceCluster[p]; !ok {
			d.DelIfaceCluster = append(d.DelIfaceCluster, uint64(p))
		}
	}
	sort.Slice(d.DelIfaceCluster, func(i, j int) bool { return d.DelIfaceCluster[i] < d.DelIfaceCluster[j] })
	d.from = Compile(old)
	name := d.from.baseName()
	d.base = &name
	return d
}

// Entries returns the total record count of the delta, the records a
// decoded delta still names by index included.
func (d *Delta) Entries() int {
	return len(d.UpLinks) + len(d.DelLinks) + len(d.UpLoss) + len(d.DelLoss) +
		len(d.AddTuples) + len(d.DelTuples) + len(d.UpAdjust) + len(d.DelAdjust) +
		len(d.AddClusterAS) + len(d.UpPrefixCluster) + len(d.DelPrefixCluster) +
		len(d.UpIfaceCluster) + len(d.DelIfaceCluster) + len(d.LocalAdjust) + d.refs.entries()
}

// Apply updates a in place. Applying Diff(a, b) to a makes a's daily
// datasets identical to b's (links, loss, tuples, corrections, cluster
// growth, and prefix attachments; the build-side observed-lifetime tables
// are archive metadata and do not travel). This is the build side's apply
// and the oracle Flat.Apply is tested against; a serving client rolls its
// compiled form with Flat.Apply and never comes here. It refuses, leaving a
// as it was, a delta that names another base than a (ErrDeltaBase) or an
// index past a's tables (ErrDeltaIndex).
func (a *Atlas) Apply(d *Delta) error {
	mapOps.applies.Add(1)
	d, err := d.resolve(func() *Flat { return Compile(a) })
	if err != nil {
		return err
	}
	// Cluster growth first: everything below may reference the new IDs.
	if len(d.AddClusterAS) > 0 {
		a.ClusterAS = append(a.ClusterAS, d.AddClusterAS...)
		if a.NumClusters < len(a.ClusterAS) {
			a.NumClusters = len(a.ClusterAS)
		}
	}
	del := make(map[uint64]bool, len(d.DelLinks))
	for _, k := range d.DelLinks {
		del[k] = true
	}
	up := make(map[uint64]Link, len(d.UpLinks))
	for _, l := range d.UpLinks {
		up[LinkKey(l.From, l.To)] = l
	}
	kept := a.Links[:0]
	for _, l := range a.Links {
		k := LinkKey(l.From, l.To)
		if del[k] {
			continue
		}
		if nl, ok := up[k]; ok {
			l = nl
			delete(up, k)
		}
		kept = append(kept, l)
	}
	a.Links = kept
	// What is left in up is new; the last of a repeated key wins, once, as
	// it does for a re-annotation above.
	for _, l := range d.UpLinks {
		k := LinkKey(l.From, l.To)
		if nl, ok := up[k]; ok {
			a.Links = append(a.Links, nl)
			delete(up, k)
		}
	}
	slices.SortFunc(a.Links, linkOrder)

	for _, k := range d.DelLoss {
		delete(a.Loss, k)
	}
	for k, v := range d.UpLoss {
		a.Loss[k] = v
	}
	for _, k := range d.DelTuples {
		delete(a.Tuples, k)
	}
	for _, k := range d.AddTuples {
		a.Tuples[k] = true
	}
	if a.GlobalAdjustMS == nil && len(d.UpAdjust) > 0 {
		a.GlobalAdjustMS = make(map[netsim.Prefix]float32, len(d.UpAdjust))
	}
	for _, k := range d.DelAdjust {
		delete(a.GlobalAdjustMS, netsim.Prefix(k))
	}
	for p, v := range d.UpAdjust {
		a.GlobalAdjustMS[p] = v
	}
	for _, k := range d.DelPrefixCluster {
		delete(a.PrefixCluster, netsim.Prefix(k))
	}
	for p, c := range d.UpPrefixCluster {
		if c < 0 || int(c) >= a.NumClusters {
			continue // defensive: never attach outside the cluster space
		}
		a.PrefixCluster[p] = c
	}
	if a.IfaceCluster == nil && len(d.UpIfaceCluster) > 0 {
		a.IfaceCluster = make(map[netsim.Prefix]cluster.ClusterID, len(d.UpIfaceCluster))
	}
	for _, k := range d.DelIfaceCluster {
		delete(a.IfaceCluster, netsim.Prefix(k))
	}
	for p, c := range d.UpIfaceCluster {
		if c < 0 || int(c) >= a.NumClusters {
			continue
		}
		a.IfaceCluster[p] = c
	}
	// Age client-learned residual corrections across the day roll: a
	// correction learned against day N's structure says progressively less
	// about later days' (the delta may even ship the aggregated fix for
	// the same misprediction, which a surviving local correction would
	// double-count). Halve per roll, drop below the materiality epsilon —
	// a correction the host keeps re-earning stays, an abandoned one is
	// gone within a few days instead of misadjusting day N+30.
	if d.ToDay != d.FromDay {
		for k, v := range a.AdjustMS {
			v /= 2
			if v < adjustDecayEpsilonMS && v > -adjustDecayEpsilonMS {
				delete(a.AdjustMS, k)
				continue
			}
			a.AdjustMS[k] = v
		}
	}
	if a.AdjustMS == nil && len(d.LocalAdjust) > 0 {
		a.AdjustMS = make(map[netsim.Prefix]float32, len(d.LocalAdjust))
	}
	for p, v := range d.LocalAdjust {
		a.AdjustMS[p] = v
	}
	a.Day = d.ToDay
	return nil
}

const deltaMagic = "INANODLT"

// Encode writes the delta as a gzip-compressed binary stream, coded against
// its base: the base's name, then every list in key order, with each
// removal and each re-annotation of a base link written as its index in the
// base's table (see baseName). An upsert of a key given more than once is
// written once, as its last occurrence: the one Apply keeps. Only a delta
// from Diff, which holds its base, or from DecodeDelta, whose records are
// coded already, can be encoded; a keyed removal added to a decoded delta
// cannot.
func (d *Delta) Encode(w io.Writer) error {
	if err := checkLatencies(d.UpLinks); err != nil {
		return err
	}
	var refs *deltaRefs
	ups := d.UpLinks
	switch {
	case d.from != nil:
		refs, ups = coded(d.from, d)
	case d.refs != nil && len(d.DelLinks)+len(d.DelLoss)+len(d.DelTuples) == 0:
		refs = d.refs
	default:
		return errNoBase
	}
	gz := gzip.NewWriter(w)
	if _, err := gz.Write([]byte(deltaMagic)); err != nil {
		return err
	}
	var sw sectionWriter
	attach := func(c cluster.ClusterID) uint64 { return uint64(uint32(c)) }
	keys := func(ks []uint64, split uint) { writeTable(&sw, slices.Sorted(slices.Values(ks)), split) }
	sw.uvarint(deltaVersion)
	sw.uvarint(uint64(d.FromDay))
	sw.uvarint(uint64(d.ToDay))
	sw.uvarint(uint64(d.base.clusters))
	sw.fixed32(d.base.crc)
	writeLinks(&sw, ups)
	writeTable(&sw, refs.reLinks, unsplit,
		func(i int) uint64 { return zigzag(refs.reLat[i]) },
		func(i int) uint64 { return uint64(refs.rePlanes[i]) })
	writeTable(&sw, refs.delLinks, unsplit)
	writeMap(&sw, d.UpLoss, splitPair, quantLoss)
	writeTable(&sw, refs.delLoss, unsplit)
	keys(d.AddTuples, splitTriple)
	writeTable(&sw, refs.delTuples, unsplit)
	writeMap(&sw, d.UpAdjust, unsplit, quantAdj)
	keys(d.DelAdjust, unsplit)
	sw.uvarint(uint64(len(d.AddClusterAS)))
	sw.column(len(d.AddClusterAS), func(i int) uint64 { return uint64(d.AddClusterAS[i]) })
	writeMap(&sw, d.UpPrefixCluster, unsplit, attach)
	keys(d.DelPrefixCluster, unsplit)
	writeMap(&sw, d.UpIfaceCluster, unsplit, attach)
	keys(d.DelIfaceCluster, unsplit)
	if _, err := gz.Write(sw.buf.Bytes()); err != nil {
		return err
	}
	return gz.Close()
}

// DecodeDelta reads a delta produced by Encode, through the parser and
// under the limits of an atlas stream: the inflate cap, the record-count
// cap on every list, growth only as bytes back it, the checksum and the
// trailer. A stream of another version is refused with ErrVersion. Its
// lists are kept in the order and with the repeats they arrive in —
// Flat.Apply puts them in order — and a link pair written once comes back
// as its two links, the reverse right after the other. The records written
// as indices come back unresolved: the exported lists hold the keyed
// records only, and Apply resolves the rest against the base the delta
// names, or refuses it.
func DecodeDelta(in io.Reader) (*Delta, error) {
	r, err := openWire(in, deltaMagic, "delta", deltaVersion)
	if err != nil {
		return nil, err
	}
	keys := func(split uint) []uint64 {
		k, _ := readTable[uint64, struct{}](r, split, nil)
		return k
	}
	attach := plain[netsim.Prefix](func(u uint64) cluster.ClusterID { return cluster.ClusterID(uint32(u)) })
	d := &Delta{FromDay: int(r.uvarint()), ToDay: int(r.uvarint()), refs: &deltaRefs{}}
	d.base = &baseName{day: d.FromDay, clusters: int32(r.count())}
	d.base.crc = r.fixed32()
	d.UpLinks = readLinks(r)
	d.refs.reLinks, d.refs.reLat = readTable(r, unsplit, plain[uint64](unzigzag))
	for i := 0; i < len(d.refs.reLinks) && r.err == nil; i++ {
		d.refs.rePlanes = append(d.refs.rePlanes, uint8(r.uvarint()))
	}
	d.refs.delLinks = keys(unsplit)
	d.UpLoss = tableMap(readTable(r, splitPair, plain[uint64](unquantLoss)))
	d.refs.delLoss = keys(unsplit)
	d.AddTuples = keys(splitTriple)
	d.refs.delTuples = keys(unsplit)
	d.UpAdjust = tableMap(readTable(r, unsplit, foldBounded(r)))
	d.DelAdjust = keys(unsplit)
	d.AddClusterAS = readASNs(r, func(u uint64) netsim.ASN { return netsim.ASN(u) })
	d.UpPrefixCluster = tableMap(readTable(r, unsplit, attach))
	d.DelPrefixCluster = keys(unsplit)
	d.UpIfaceCluster = tableMap(readTable(r, unsplit, attach))
	d.DelIfaceCluster = keys(unsplit)
	if err := r.close("delta"); err != nil {
		return nil, err
	}
	return d, nil
}

// EncodedSize returns the compressed delta size in bytes.
func (d *Delta) EncodedSize() int {
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		return 0
	}
	return buf.Len()
}
