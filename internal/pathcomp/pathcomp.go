// Package pathcomp implements iPlane's path-composition prediction — the
// baseline iNano is measured against (§3, §6.3). It keeps an atlas of
// *measured paths* (size proportional to vantage points × destinations ×
// path length, the scalability problem iNano solves) and predicts a route
// by splicing a path segment out of the source with a measured path into
// the destination at an intersecting cluster.
//
// The Improved variant applies iNano's techniques at the splice point
// (§6.3.1): the AS sequence around the intersection must pass the 3-tuple
// check, and AS preference tuples break ties among candidate intersections.
package pathcomp

import (
	"sort"

	"inano/internal/atlas"
	"inano/internal/cluster"
	"inano/internal/netsim"
	"inano/internal/trace"
)

// StoredPath is one measured cluster-level path with cumulative one-way
// latency and loss estimates per hop (derived from traceroute RTTs, so
// noisier than iNano's link measurements — the paper's explanation for
// path composition's worse latency tail).
type StoredPath struct {
	Src, Dst netsim.Prefix
	Clusters []cluster.ClusterID
	// LatTo[i] estimates the one-way latency from the source to hop i.
	LatTo []float64
	// LossTo[i] estimates the one-way loss from the source to hop i.
	LossTo []float64
	// AS[i] is the AS of Clusters[i].
	AS []netsim.ASN
}

// Atlas is the path-based atlas.
type Atlas struct {
	Paths []StoredPath
	// bySrc indexes paths by source prefix; byDst by destination prefix;
	// through lists path indices passing through each cluster.
	bySrc   map[netsim.Prefix][]int32
	byDst   map[netsim.Prefix][]int32
	through map[cluster.ClusterID][]int32
	// link holds the link-level atlas for the Improved variant's tuple
	// and preference checks (nil for plain composition).
	link *atlas.Atlas
}

// Options selects the composition variant.
type Options struct {
	// Improved applies iNano's 3-tuple and preference checks when
	// splicing (the "improved path-based" bars of Fig. 5).
	Improved bool
}

// BuildFromTraces constructs the path atlas from measured traceroutes,
// using the clustering embedded in the link atlas's prefix/cluster data.
// clusterOf maps interfaces to clusters exactly as the link-atlas build
// did; la supplies AS mappings and (for Improved mode) tuple/pref sets.
func BuildFromTraces(traces []trace.Traceroute, clusterOf map[netsim.IP]cluster.ClusterID, la *atlas.Atlas) *Atlas {
	a := &Atlas{
		bySrc:   make(map[netsim.Prefix][]int32),
		byDst:   make(map[netsim.Prefix][]int32),
		through: make(map[cluster.ClusterID][]int32),
		link:    la,
	}
	for i := range traces {
		tr := &traces[i]
		if !tr.Reached {
			continue
		}
		sp := StoredPath{Src: tr.Src, Dst: tr.Dst}
		var prev cluster.ClusterID = -1
		for _, h := range tr.Hops {
			if h.IP == 0 {
				continue
			}
			c, ok := clusterOf[h.IP]
			if !ok || c == prev {
				continue
			}
			sp.Clusters = append(sp.Clusters, c)
			// One-way latency estimate: half the hop RTT, the paper's
			// "just subtracting RTTs measured in traceroutes".
			sp.LatTo = append(sp.LatTo, h.RTTMS/2)
			sp.AS = append(sp.AS, la.ClusterAS[c])
			prev = c
		}
		if len(sp.Clusters) < 1 {
			continue
		}
		// Loss estimates compose the link atlas's measured losses.
		sp.LossTo = make([]float64, len(sp.Clusters))
		deliver := 1.0
		for j := 1; j < len(sp.Clusters); j++ {
			deliver *= 1 - la.LossOf(sp.Clusters[j-1], sp.Clusters[j])
			sp.LossTo[j] = 1 - deliver
		}
		idx := int32(len(a.Paths))
		a.Paths = append(a.Paths, sp)
		a.bySrc[tr.Src] = append(a.bySrc[tr.Src], idx)
		a.byDst[tr.Dst] = append(a.byDst[tr.Dst], idx)
		seen := make(map[cluster.ClusterID]bool, len(sp.Clusters))
		for _, c := range sp.Clusters {
			if !seen[c] {
				seen[c] = true
				a.through[c] = append(a.through[c], idx)
			}
		}
	}
	return a
}

// SizeBytes estimates the serialized footprint of the path atlas (4 bytes
// per stored hop plus 16 per path header) — the quantity the paper reports
// as two orders of magnitude above iNano's link atlas.
func (a *Atlas) SizeBytes() int {
	total := 0
	for i := range a.Paths {
		total += 16 + 12*len(a.Paths[i].Clusters)
	}
	return total
}

// Prediction is a composed path with property estimates.
type Prediction struct {
	Found     bool
	Clusters  []cluster.ClusterID
	ASPath    []netsim.ASN
	LatencyMS float64
	LossRate  float64
}

// Predict composes a path from src to dst: the first segment is a measured
// path out of src, the second a measured path into dst, spliced at an
// intersection cluster. Among valid splices it picks the one minimizing
// (AS hops, latency estimate), the heuristic that iPlane found to best
// match real routes.
func (a *Atlas) Predict(src, dst netsim.Prefix, opts Options) Prediction {
	outs := a.bySrc[src]
	ins := a.byDst[dst]
	if len(outs) == 0 || len(ins) == 0 {
		return Prediction{}
	}
	// Direct measurement wins if present.
	for _, oi := range outs {
		if a.Paths[oi].Dst == dst {
			return a.fromStored(&a.Paths[oi])
		}
	}
	// Index the source's out-path positions by cluster, then walk the few
	// in-paths to the destination looking for intersections; this keeps
	// the join linear in |out-hops| + |in-hops| instead of quadratic.
	type outPos struct {
		oi int32
		oc int
	}
	outAt := make(map[cluster.ClusterID][]outPos)
	for _, oi := range outs {
		for oc, c := range a.Paths[oi].Clusters {
			outAt[c] = append(outAt[c], outPos{oi, oc})
		}
	}
	var best *cand
	for _, ii := range ins {
		ip := &a.Paths[ii]
		for ic, c := range ip.Clusters {
			for _, op := range outAt[c] {
				o := &a.Paths[op.oi]
				cd := cand{out: op.oi, in: ii, oc: op.oc, ic: ic}
				if opts.Improved && !a.spliceOK(o, op.oc, ip, ic) {
					continue
				}
				cd.asHops = asHopsOf(o.AS[:op.oc+1]) + asHopsOf(ip.AS[ic:])
				cd.lat = o.LatTo[op.oc] + (ip.LatTo[len(ip.LatTo)-1] - ip.LatTo[ic])
				if best == nil || better(&cd, best, a, opts) {
					b := cd
					best = &b
				}
			}
		}
	}
	if best == nil {
		return Prediction{}
	}
	op, ip := &a.Paths[best.out], &a.Paths[best.in]
	p := Prediction{Found: true}
	p.Clusters = append(p.Clusters, op.Clusters[:best.oc+1]...)
	p.Clusters = append(p.Clusters, ip.Clusters[best.ic+1:]...)
	p.LatencyMS = best.lat
	lossOut := op.LossTo[best.oc]
	lossIn := (1 - ip.LossTo[len(ip.LossTo)-1]) / max1(1-ip.LossTo[best.ic])
	p.LossRate = 1 - (1-lossOut)*lossIn
	if p.LossRate < 0 {
		p.LossRate = 0
	}
	for _, asn := range append(append([]netsim.ASN(nil), op.AS[:best.oc+1]...), ip.AS[best.ic+1:]...) {
		if n := len(p.ASPath); n == 0 || p.ASPath[n-1] != asn {
			p.ASPath = append(p.ASPath, asn)
		}
	}
	if o, ok := a.link.PrefixAS[src]; ok && (len(p.ASPath) == 0 || p.ASPath[0] != o) {
		p.ASPath = append([]netsim.ASN{o}, p.ASPath...)
	}
	if o, ok := a.link.PrefixAS[dst]; ok && (len(p.ASPath) == 0 || p.ASPath[len(p.ASPath)-1] != o) {
		p.ASPath = append(p.ASPath, o)
	}
	return p
}

func max1(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return x
}

// better orders candidate splices by (AS hops, preference wins at the
// splice for Improved mode, latency, deterministic tiebreak).
func better(x, y *cand, a *Atlas, opts Options) bool {
	if x.asHops != y.asHops {
		return x.asHops < y.asHops
	}
	if opts.Improved {
		// Prefer the candidate whose splice-point next AS is preferred
		// by the AS before it.
		xa := a.spliceNextPref(x)
		ya := a.spliceNextPref(y)
		if xa != ya {
			return xa > ya
		}
	}
	if x.lat != y.lat {
		return x.lat < y.lat
	}
	if x.out != y.out {
		return x.out < y.out
	}
	return x.in < y.in
}

// cand is one candidate splice of an out-path and an in-path.
type cand struct {
	out, in int32
	oc, ic  int // splice hop indices in each path
	asHops  int
	lat     float64
}

// spliceNextPref returns 1 when the AS at the splice prefers the in-path's
// next AS over staying on the out-path (an approximation of enforcing
// preferences at intersections), else 0.
func (a *Atlas) spliceNextPref(c *cand) int {
	op, ip := &a.Paths[c.out], &a.Paths[c.in]
	at := op.AS[c.oc]
	next := nextASAfter(ip.AS, c.ic)
	alt := nextASAfter(op.AS, c.oc)
	if next != 0 && alt != 0 && next != alt && a.link.Prefers(at, next, alt) {
		return 1
	}
	return 0
}

func nextASAfter(as []netsim.ASN, i int) netsim.ASN {
	for j := i + 1; j < len(as); j++ {
		if as[j] != as[i] {
			return as[j]
		}
	}
	return 0
}

// spliceOK applies the Improved variant's 3-tuple check to the AS sequence
// prior to, at, and after the intersection (§6.3.1).
func (a *Atlas) spliceOK(op *StoredPath, oc int, ip *StoredPath, ic int) bool {
	at := op.AS[oc]
	prev := prevASBefore(op.AS, oc)
	next := nextASAfter(ip.AS, ic)
	if prev == 0 || next == 0 || prev == next || prev == at || at == next {
		return true
	}
	if a.link.ASDegree[at] <= atlas.DegreeThreshold {
		return true
	}
	return a.link.HasTuple(prev, at, next)
}

func prevASBefore(as []netsim.ASN, i int) netsim.ASN {
	for j := i - 1; j >= 0; j-- {
		if as[j] != as[i] {
			return as[j]
		}
	}
	return 0
}

// fromStored converts a directly measured path into a prediction.
func (a *Atlas) fromStored(sp *StoredPath) Prediction {
	p := Prediction{
		Found:     true,
		Clusters:  sp.Clusters,
		LatencyMS: sp.LatTo[len(sp.LatTo)-1],
		LossRate:  sp.LossTo[len(sp.LossTo)-1],
	}
	for _, asn := range sp.AS {
		if n := len(p.ASPath); n == 0 || p.ASPath[n-1] != asn {
			p.ASPath = append(p.ASPath, asn)
		}
	}
	if o, ok := a.link.PrefixAS[sp.Src]; ok && (len(p.ASPath) == 0 || p.ASPath[0] != o) {
		p.ASPath = append([]netsim.ASN{o}, p.ASPath...)
	}
	if o, ok := a.link.PrefixAS[sp.Dst]; ok && p.ASPath[len(p.ASPath)-1] != o {
		p.ASPath = append(p.ASPath, o)
	}
	return p
}

func asHopsOf(as []netsim.ASN) int {
	n := 0
	var prev netsim.ASN
	for _, a := range as {
		if a != prev {
			n++
			prev = a
		}
	}
	return n
}

// Query composes forward and reverse predictions into end-to-end estimates,
// mirroring core.Engine.Query.
func (a *Atlas) Query(src, dst netsim.Prefix, opts Options) (rttMS, loss float64, ok bool) {
	fwd := a.Predict(src, dst, opts)
	rev := a.Predict(dst, src, opts)
	if !fwd.Found || !rev.Found {
		return 0, 0, false
	}
	return fwd.LatencyMS + rev.LatencyMS, 1 - (1-fwd.LossRate)*(1-rev.LossRate), true
}

// Sources returns the prefixes with outgoing measured paths, sorted.
func (a *Atlas) Sources() []netsim.Prefix {
	out := make([]netsim.Prefix, 0, len(a.bySrc))
	for p := range a.bySrc {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
