package bgpsim

import (
	"math"

	"inano/internal/netsim"
)

// Hop is one PoP on a ground-truth path.
type Hop struct {
	PoP netsim.PoPID
	// Link is the link traversed to enter this PoP, -1 for the first hop.
	Link netsim.LinkID
}

// Path is a ground-truth one-way PoP-level path. OneWayMS covers the listed
// links only; last-mile access latency is accounted separately by RTT.
type Path struct {
	Hops     []Hop
	OneWayMS float64
}

// PoPs returns just the PoP sequence.
func (p Path) PoPs() []netsim.PoPID {
	out := make([]netsim.PoPID, len(p.Hops))
	for i, h := range p.Hops {
		out[i] = h.PoP
	}
	return out
}

// intraCache lazily computes all-pairs shortest paths (by latency) among
// each AS's PoPs over intra-AS links, with next-link matrices for path
// reconstruction. ASes have at most a few dozen PoPs, so Floyd-Warshall per
// AS is cheap.
type intraCache struct {
	top  *netsim.Topology
	byAS []filled[*intraAS] // by ASN-1
	idx  []int32            // by PoP: its position in its AS's PoP list
}

type intraAS struct {
	idx  []int32 // the cache's
	pops []netsim.PoPID
	dist [][]float64
	// next[i][j] is the first link to take from pops[i] toward pops[j];
	// -1 when i==j or unreachable.
	next [][]netsim.LinkID
}

func (c *intraCache) get(a netsim.ASN) *intraAS {
	return c.byAS[a-1].get(func() *intraAS { return c.compute(a) })
}

func (c *intraCache) compute(a netsim.ASN) *intraAS {
	pops := c.top.AS(a).PoPs
	n := len(pops)
	ia := &intraAS{idx: c.idx, pops: pops}
	ia.dist = make([][]float64, n)
	ia.next = make([][]netsim.LinkID, n)
	for i := range ia.dist {
		ia.dist[i] = make([]float64, n)
		ia.next[i] = make([]netsim.LinkID, n)
		for j := range ia.dist[i] {
			ia.dist[i][j] = math.Inf(1)
			ia.next[i][j] = -1
		}
		ia.dist[i][i] = 0
	}
	for _, p := range pops {
		i := ia.idx[p]
		for _, adj := range c.top.AdjPoP[p] {
			l := &c.top.Links[adj.Link]
			if l.Kind != netsim.LinkIntra {
				continue
			}
			if c.top.PoPAS(adj.To) != a {
				continue
			}
			j := ia.idx[adj.To]
			if l.LatencyMS < ia.dist[i][j] {
				ia.dist[i][j] = l.LatencyMS
				ia.next[i][j] = l.ID
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := ia.dist[i][k]
			if math.IsInf(dik, 1) {
				continue
			}
			for j := 0; j < n; j++ {
				if d := dik + ia.dist[k][j]; d < ia.dist[i][j] {
					ia.dist[i][j] = d
					ia.next[i][j] = ia.next[i][k]
				}
			}
		}
	}
	return ia
}

// distBetween returns the intra-AS latency from p to q (both must belong to
// the AS).
func (ia *intraAS) distBetween(p, q netsim.PoPID) float64 {
	return ia.dist[ia.idx[p]][ia.idx[q]]
}

// appendPath appends the intra-AS hops from cur (exclusive) to dst
// (inclusive) to path, returning the updated path and accumulated latency.
func (ia *intraAS) appendPath(top *netsim.Topology, path []Hop, cur, dst netsim.PoPID) ([]Hop, float64) {
	total := 0.0
	for cur != dst {
		l := ia.next[ia.idx[cur]][ia.idx[dst]]
		if l < 0 {
			break // unreachable: generator guarantees this never happens
		}
		nxt := top.OtherEnd(l, cur)
		path = append(path, Hop{PoP: nxt, Link: l})
		total += top.Links[l].LatencyMS
		cur = nxt
	}
	return path, total
}

// PoPPath computes the ground-truth one-way PoP-level path from srcPoP to
// the home PoP of dst, expanding the AS path with early-exit (hot potato)
// exit selection, or late-exit for flagged AS pairs.
func (v *Day) PoPPath(srcPoP netsim.PoPID, dst netsim.Prefix) (Path, bool) {
	top := v.sim.Top
	home, ok := top.PrefixHome[dst]
	if !ok {
		return Path{}, false
	}
	asPath, ok := v.ASPath(top.PoPAS(srcPoP), dst)
	if !ok {
		return Path{}, false
	}
	dstLoc := top.PoPs[home].Loc
	path := append(make([]Hop, 0, 16), Hop{PoP: srcPoP, Link: -1})
	total := 0.0
	cur := srcPoP
	for i := 0; i+1 < len(asPath); i++ {
		a, b := asPath[i], asPath[i+1]
		ia := v.sim.intra.get(a)
		pair := v.pairs[netsim.ASPairKey(a, b)]
		if len(pair.links) == 0 {
			return Path{}, false
		}
		best, bestCost := netsim.LinkID(-1), math.Inf(1)
		var bestNear, bestFar netsim.PoPID
		for _, lid := range pair.links {
			l := &top.Links[lid]
			near, far := l.A, l.B
			if top.PoPAS(near) != a {
				near, far = far, near
			}
			cost := ia.distBetween(cur, near)
			if pair.late {
				// Cold potato: carry toward the destination, handing
				// off at the exit that minimizes the whole remaining
				// geographic haul.
				cost += l.LatencyMS + top.PoPs[far].Loc.Dist(dstLoc)*top.Cfg.MSPerUnit
			}
			// Day-varying IGP noise flips near-tie exit choices.
			cost = (cost + 0.1) * (1 + exitNoiseFrac*hashFloat(mix(pair.salt, uint64(lid), uint64(cur), 0)))
			if cost < bestCost || (cost == bestCost && lid < best) {
				best, bestCost = lid, cost
				bestNear, bestFar = near, far
			}
		}
		var ms float64
		path, ms = ia.appendPath(top, path, cur, bestNear)
		total += ms
		path = append(path, Hop{PoP: bestFar, Link: best})
		total += top.Links[best].LatencyMS
		cur = bestFar
	}
	// Final intra-AS stretch to the prefix's home PoP.
	ia := v.sim.intra.get(asPath[len(asPath)-1])
	var ms float64
	path, ms = ia.appendPath(top, path, cur, home)
	total += ms
	return Path{Hops: path, OneWayMS: total}, true
}

// Route computes the forward path between two prefixes (from src's home PoP
// to dst's home PoP). For end-to-end metrics call RTT / FwdLoss, which add
// the access tails.
func (v *Day) Route(src, dst netsim.Prefix) (Path, bool) {
	home, ok := v.sim.Top.PrefixHome[src]
	if !ok {
		return Path{}, false
	}
	return v.PoPPath(home, dst)
}

// PathLoss returns the one-way loss rate over the links of p on this day.
func (v *Day) PathLoss(p Path) float64 {
	return v.PathLossQuarter(p, v.day*lossQuartersPerDay)
}

// PathLossQuarter evaluates path loss at quarter-day granularity, used by
// the sub-day loss stationarity experiment (§6.2.2).
func (v *Day) PathLossQuarter(p Path, quarter int) float64 {
	deliver := 1.0
	for i := 1; i < len(p.Hops); i++ {
		prev := p.Hops[i-1].PoP
		deliver *= 1 - v.sim.LinkLossQuarter(p.Hops[i].Link, prev, quarter)
	}
	return 1 - deliver
}

// RTT returns the round-trip latency in milliseconds between hosts in two
// prefixes, composing the asymmetric forward and reverse paths plus both
// access tails (each crossed twice). ok is false if either direction has no
// route.
func (v *Day) RTT(src, dst netsim.Prefix) (float64, bool) {
	fwd, ok := v.Route(src, dst)
	if !ok {
		return 0, false
	}
	rev, ok := v.Route(dst, src)
	if !ok {
		return 0, false
	}
	top := v.sim.Top
	access := 2 * (top.PrefixAccessMS[src] + top.PrefixAccessMS[dst])
	return fwd.OneWayMS + rev.OneWayMS + access, true
}

// FwdLoss returns the one-way loss rate from a host in src to a host in
// dst, including both access tails.
func (v *Day) FwdLoss(src, dst netsim.Prefix) (float64, bool) {
	fwd, ok := v.Route(src, dst)
	if !ok {
		return 0, false
	}
	deliver := (1 - v.PathLoss(fwd)) *
		(1 - v.sim.AccessLoss(src, v.day)) *
		(1 - v.sim.AccessLoss(dst, v.day))
	return 1 - deliver, true
}

// RTLoss returns the round-trip (probe/response) loss rate between two
// prefixes: the probability that a probe or its response is dropped.
func (v *Day) RTLoss(src, dst netsim.Prefix) (float64, bool) {
	f, ok := v.FwdLoss(src, dst)
	if !ok {
		return 0, false
	}
	r, ok := v.FwdLoss(dst, src)
	if !ok {
		return 0, false
	}
	return 1 - (1-f)*(1-r), true
}
