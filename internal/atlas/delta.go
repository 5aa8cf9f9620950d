package atlas

import (
	"bytes"
	"compress/gzip"
	"io"
	"slices"
	"sort"

	"inano/internal/cluster"
	"inano/internal/netsim"
)

// AdjustDecayEpsilonMS is the magnitude below which a decayed client
// residual correction is dropped entirely on a day roll (see Apply);
// it matches the feedback merge's materiality threshold for learning a
// correction in the first place.
const AdjustDecayEpsilonMS = 0.5

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
	LocalAdjust map[netsim.Prefix]float32
}

// Diff computes the delta that transforms old's daily datasets into new's.
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
	return d
}

// Entries returns the total record count of the delta.
func (d *Delta) Entries() int {
	return len(d.UpLinks) + len(d.DelLinks) + len(d.UpLoss) + len(d.DelLoss) +
		len(d.AddTuples) + len(d.DelTuples) + len(d.UpAdjust) + len(d.DelAdjust) +
		len(d.AddClusterAS) + len(d.UpPrefixCluster) + len(d.DelPrefixCluster) +
		len(d.UpIfaceCluster) + len(d.DelIfaceCluster) + len(d.LocalAdjust)
}

// Apply updates a in place. Applying Diff(a, b) to a makes a's daily
// datasets identical to b's (links, loss, tuples, corrections, cluster
// growth, and prefix attachments; the build-side observed-lifetime tables
// are archive metadata and do not travel). This is the build side's apply
// and the oracle Flat.Apply is tested against; a serving client rolls its
// compiled form with Flat.Apply and never comes here.
func (a *Atlas) Apply(d *Delta) {
	mapOps.applies.Add(1)
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
			if v < AdjustDecayEpsilonMS && v > -AdjustDecayEpsilonMS {
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
}

const deltaMagic = "INANODLT"

// Encode writes the delta as a gzip-compressed binary stream, every list in
// key order. An upsert of a key given more than once is written once, as
// its last occurrence: the one Apply keeps.
func (d *Delta) Encode(w io.Writer) error {
	gz := gzip.NewWriter(w)
	if _, err := gz.Write([]byte(deltaMagic)); err != nil {
		return err
	}
	var sw sectionWriter
	attach := func(c cluster.ClusterID) uint64 { return uint64(uint32(c)) }
	keys := func(ks []uint64, split uint) { writeTable(&sw, slices.Sorted(slices.Values(ks)), split) }
	sw.uvarint(atlasVersion)
	sw.uvarint(uint64(d.FromDay))
	sw.uvarint(uint64(d.ToDay))
	writeLinks(&sw, d.UpLinks)
	keys(d.DelLinks, splitPair)
	writeMap(&sw, d.UpLoss, splitPair, quantLoss)
	keys(d.DelLoss, splitPair)
	keys(d.AddTuples, splitTriple)
	keys(d.DelTuples, splitTriple)
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
// trailer. Its lists are kept in the order and with the repeats they
// arrive in — Flat.Apply puts them in order — and a link pair written once
// comes back as its two links, the reverse right after the other.
func DecodeDelta(in io.Reader) (*Delta, error) {
	r, err := openWire(in, deltaMagic, "delta")
	if err != nil {
		return nil, err
	}
	keys := func(split uint) []uint64 {
		k, _ := readTable[uint64, struct{}](r, split, nil)
		return k
	}
	attach := plain[netsim.Prefix](func(u uint64) cluster.ClusterID { return cluster.ClusterID(uint32(u)) })
	d := &Delta{FromDay: int(r.uvarint()), ToDay: int(r.uvarint())}
	d.UpLinks = readLinks(r)
	d.DelLinks = keys(splitPair)
	d.UpLoss = tableMap(readTable(r, splitPair, plain[uint64](unquantLoss)))
	d.DelLoss = keys(splitPair)
	d.AddTuples = keys(splitTriple)
	d.DelTuples = keys(splitTriple)
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
