package feedback

import (
	"inano/internal/atlas"
	"inano/internal/cluster"
	"inano/internal/netsim"
)

// Atlas merging: corrective (and routine client-side) traceroutes patch
// the FROM_SRC plane of the local atlas. The merge only reads the compiled
// atlas; what the traceroutes teach comes back as a same-day atlas.Delta,
// which the caller applies the way it applies any other (Flat.Apply).

// MaxAdjustMS caps the magnitude of a learned one-way residual
// correction: one absurd measurement (a routing event mid-probe, a
// half-broken path) must not poison a destination's predictions.
const MaxAdjustMS = 100.0

// Merge works out what measured traceroutes add to the FROM_SRC plane of f
// (§4.3.1) and returns it as a delta inside f's day, so applying it decays
// nothing: new links and FROM_SRC tags on known ones in UpLinks, the
// measuring host's attachment in UpPrefixCluster, learned residuals (see
// learnResidual) in LocalAdjust. Interfaces unknown to the atlas are
// grouped into local clusters by their /24 (a coarse client-side
// approximation of the server's full clustering), allocated through local,
// which persists across merges and is mutated in place. It holds each
// local cluster's index among f's local clusters, cluster
// f.ShippedClusters()+index, so the day roll that moves the local clusters
// up past the builder's new ones (Flat.Apply) moves no entry of it. Their
// ASes ride in AddClusterAS, so a delta with entries must be applied or
// local runs ahead of the atlas. Each traceroute sees what the ones before
// it in the batch taught.
//
// The two change counts are reported separately because they differ in
// what they cost the caller: structural changes (new links, plane tags,
// attachment entries) alter route computation; residual changes (local
// corrections newly learned or revised by more than 0.5 ms) are applied
// outside the prediction trees, so a residual-only delta leaves a warm
// tree cache valid. Revisions under that threshold ride along with a
// batch that counted something and are dropped from one that did not: a
// batch that taught nothing material yields a delta with no entries.
func Merge(f *atlas.Flat, local map[netsim.Prefix]int32, trs []Traceroute) (d *atlas.Delta, structural, residual int) {
	m := merger{
		f:     f,
		local: local,
		d: &atlas.Delta{
			FromDay:         int(f.Day),
			ToDay:           int(f.Day),
			UpPrefixCluster: make(map[netsim.Prefix]cluster.ClusterID),
			LocalAdjust:     make(map[netsim.Prefix]float32),
		},
		linked: make(map[uint64]bool),
	}
	for i := range trs {
		structural += m.mergeOne(&trs[i])
		residual += m.learnResidual(&trs[i])
	}
	if structural == 0 && residual == 0 && len(m.d.AddClusterAS) == 0 {
		m.d.LocalAdjust = nil
	}
	return m.d, structural, residual
}

// merger is one batch's view of the atlas: f with the changes pending in d
// laid over it.
type merger struct {
	f     *atlas.Flat
	local map[netsim.Prefix]int32
	d     *atlas.Delta
	// linked holds the LinkKeys of d.UpLinks: links this batch has already
	// added or tagged.
	linked map[uint64]bool
}

// learnResidual compares a traceroute's measured end-to-end RTT (the
// destination host's own answer) with what the atlas predicted when the
// probe was scheduled, and steps the destination's local correction
// halfway toward closing the signed residual. The residual is measured
// against the *corrected* prediction, so each probe of the same
// destination converges the served RTT geometrically onto the measured
// value; destinations this host never probed are untouched. Returns 1
// when a correction was newly learned or materially (>0.5 ms) revised.
func (m *merger) learnResidual(tr *Traceroute) int {
	if !tr.Predicted {
		return 0
	}
	measured, ok := tr.MeasuredRTT()
	if !ok {
		return 0
	}
	resid := measured - tr.PredictedRTTMS
	old, pending := m.d.LocalAdjust[tr.Dst]
	if !pending {
		_, old, _ = m.f.Adjust(tr.Dst)
	}
	next := min(max(float64(old)+0.5*resid, -MaxAdjustMS), MaxAdjustMS)
	m.d.LocalAdjust[tr.Dst] = float32(next)
	if d := float32(next) - old; d > 0.5 || d < -0.5 {
		return 1
	}
	return 0
}

func (m *merger) mergeOne(tr *Traceroute) int {
	type hopRef struct {
		cl  cluster.ClusterID
		rtt float64
	}
	var hops []hopRef
	for _, h := range tr.Hops {
		if h.IP == 0 {
			hops = append(hops, hopRef{cl: -1})
			continue
		}
		cl, ok := m.clusterForIP(h.IP)
		if !ok {
			hops = append(hops, hopRef{cl: -1})
			continue
		}
		hops = append(hops, hopRef{cl: cl, rtt: h.RTTMS})
	}
	added := 0
	for i := 0; i+1 < len(hops); i++ {
		x, y := hops[i], hops[i+1]
		if x.cl < 0 || y.cl < 0 || x.cl == y.cl {
			continue
		}
		key := atlas.LinkKey(x.cl, y.cl)
		if m.linked[key] {
			continue
		}
		l, known := m.f.LinkAt(x.cl, y.cl)
		if known {
			// Known link: make sure the FROM_SRC plane sees it.
			if l.Planes&atlas.PlaneFromSrc != 0 {
				continue
			}
			l.Planes |= atlas.PlaneFromSrc
		} else {
			l = atlas.Link{From: x.cl, To: y.cl, LatencyMS: float32(atlas.HopLatencyMS(y.rtt - x.rtt)), Planes: atlas.PlaneFromSrc}
		}
		m.d.UpLinks = append(m.d.UpLinks, l)
		m.linked[key] = true
		added++
	}
	// Record this host's attachment cluster if the atlas lacks it.
	if _, ok := m.attachment(tr.Src); !ok {
		for _, h := range hops {
			if h.cl >= 0 {
				m.d.UpPrefixCluster[tr.Src] = h.cl
				added++
				break
			}
		}
	}
	return added
}

// attachment returns the attachment cluster of p, pending entries included.
func (m *merger) attachment(p netsim.Prefix) (cluster.ClusterID, bool) {
	if cl, ok := m.d.UpPrefixCluster[p]; ok {
		return cl, true
	}
	return m.f.ClusterOf(p)
}

// clusterForIP maps an interface to a cluster: the attachment cluster of
// its /24 when the atlas knows it, otherwise a locally allocated cluster
// shared by all interfaces of that /24.
func (m *merger) clusterForIP(ip netsim.IP) (cluster.ClusterID, bool) {
	p := netsim.PrefixOf(ip)
	if cl, ok := m.attachment(p); ok {
		return cl, true
	}
	if k, ok := m.local[p]; ok {
		return cluster.ClusterID(m.f.ShippedClusters() + k), true
	}
	asn := m.f.OriginAS(p)
	if asn == 0 {
		return 0, false // not even BGP knows this space; ignore
	}
	k := m.f.NumClusters - m.f.ShippedClusters() + int32(len(m.d.AddClusterAS))
	m.d.AddClusterAS = append(m.d.AddClusterAS, asn)
	m.local[p] = k
	return cluster.ClusterID(m.f.ShippedClusters() + k), true
}
