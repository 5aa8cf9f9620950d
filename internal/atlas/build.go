package atlas

import (
	"encoding/binary"
	"maps"
	"math"
	"slices"
	"sort"

	"inano/internal/bgpsim"
	"inano/internal/cluster"
	"inano/internal/netsim"
	"inano/internal/trace"
)

// BuildInput carries one day's measurements into the builder.
//
// Top and Day are consulted only by the *simulated measurement tools*
// (physical-link annotation, BGP feed snapshots, late-exit detection) — the
// stand-ins for probing real routers and reading RouteViews. All inference
// operates on the observed traceroutes.
type BuildInput struct {
	// Top is the simulated topology the campaign probed.
	Top *netsim.Topology
	// Day is the BGP feed snapshot for the build day.
	Day *bgpsim.Day
	// Meter annotates physical link latencies (the probing stand-in).
	Meter *trace.Meter

	// VPTraces are vantage-point traceroutes (the TO_DST plane).
	VPTraces []trace.Traceroute
	// ClientTraces are end-host-contributed traceroutes (FROM_SRC plane).
	ClientTraces []trace.Traceroute
	// BGPFeeds lists route-collector peer ASes whose tables seed
	// 3-tuples and provider mappings (RouteViews/RIPE stand-in).
	BGPFeeds []netsim.ASN

	ClusterCfg cluster.Config
	// Clusters optionally supplies a precomputed clustering (e.g. one
	// stabilized against the previous day's via cluster.Stabilize, as the
	// production server's persistent registry would). When nil, the
	// builder clusters the observed interfaces itself.
	Clusters *cluster.Clustering
}

// DefaultFeeds picks the highest-degree ASes as BGP route collectors.
func DefaultFeeds(top *netsim.Topology, n int) []netsim.ASN {
	type dv struct {
		asn netsim.ASN
		deg int
	}
	ds := make([]dv, len(top.ASes))
	for i := range top.ASes {
		ds[i] = dv{top.ASes[i].ASN, len(top.ASAdj[i])}
	}
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].deg != ds[j].deg {
			return ds[i].deg > ds[j].deg
		}
		return ds[i].asn < ds[j].asn
	})
	if n > len(ds) {
		n = len(ds)
	}
	out := make([]netsim.ASN, n)
	for i := 0; i < n; i++ {
		out[i] = ds[i].asn
	}
	return out
}

// Build processes one day's measurements into an atlas. It is a
// materialized-slice convenience over StreamBuilder: two passes over the
// same traces (VP plane first, then clients) produce an atlas
// byte-identical to what the streaming path yields from an equivalent
// out-of-core trace stream.
func Build(in BuildInput) *Atlas {
	sb := NewStreamBuilder(StreamInput{
		Tools:    NewSimTools(in.Top, in.Day, in.Meter, in.BGPFeeds, in.ClusterCfg),
		Day:      in.Day.DayNum(),
		Clusters: in.Clusters,
	})
	forEachTrace(in, func(tr *trace.Traceroute, _ bool) { sb.ObserveIfaces(tr) })
	sb.StartTraces()
	forEachTrace(in, func(tr *trace.Traceroute, fromVP bool) { sb.AddTrace(tr, fromVP) })
	return sb.Finish()
}

// forEachTrace visits VP traces (fromVP=true) then client traces.
func forEachTrace(in BuildInput, f func(tr *trace.Traceroute, fromVP bool)) {
	for i := range in.VPTraces {
		f(&in.VPTraces[i], true)
	}
	for i := range in.ClientTraces {
		f(&in.ClientTraces[i], false)
	}
}

// physicalLink locates the lowest-latency ground-truth link joining two
// PoPs, the target of the simulated link measurement tools. Returns -1 if
// the PoPs are not directly joined (possible when clustering merged remote
// interfaces; the builder then falls back to a default annotation).
func physicalLink(top *netsim.Topology, a, b netsim.PoPID) netsim.LinkID {
	if a < 0 || b < 0 {
		return -1
	}
	best := netsim.LinkID(-1)
	bestLat := math.Inf(1)
	for _, adj := range top.AdjPoP[a] {
		if adj.To == b && top.Links[adj.Link].LatencyMS < bestLat {
			best, bestLat = adj.Link, top.Links[adj.Link].LatencyMS
		}
	}
	return best
}

// appendASPathKey appends the compact key of an AS path: each ASN's four
// bytes, big-endian, so keys order as the paths do element by element.
func appendASPathKey(b []byte, p []netsim.ASN) []byte {
	for _, a := range p {
		b = binary.BigEndian.AppendUint32(b, uint32(a))
	}
	return b
}

// weightedPath is an observed AS path with its observation count.
type weightedPath struct {
	path  []netsim.ASN
	key   string // asPathKey(path): the builder's dedup key and sort order
	count int
}

// inferPreferences implements §4.3.3. For every observed route r and
// position k, an equal-length alternative exists through neighbor x of r[k]
// when dist(x, dst) == len(r)-k-2 in the observed AS graph; each such
// alternative casts a vote (r[k]: r[k+1] > x). A preference is kept only if
// observed at least three times as often as its reverse.
//
// maxDests caps how many destination ASes get a BFS distance field
// (0 = all of them, the materialized-build behavior). At internet scale
// the per-destination BFS is the one superlinear stage left, so the
// streaming builder keeps only the most-observed destinations; routes to
// dropped destinations simply cast no preference votes.
func inferPreferences(paths []*weightedPath, asAdj map[netsim.ASN]map[netsim.ASN]bool, maxDests int) map[uint64]bool {
	// A dense view of the observed graph: its ASes (and the routes', should
	// one be missing from it) in ascending order, neighbour lists in CSR
	// form over their positions.
	idx := make(map[netsim.ASN]int32, len(asAdj))
	for x, nbs := range asAdj {
		idx[x] = 0
		for y := range nbs {
			idx[y] = 0
		}
	}
	for _, u := range paths {
		for _, x := range u.path {
			idx[x] = 0
		}
	}
	asns := slices.Sorted(maps.Keys(idx))
	for i, x := range asns {
		idx[x] = int32(i)
	}
	off, nbrs := make([]int32, len(asns)+1), []int32(nil)
	for i, x := range asns {
		for y := range asAdj[x] {
			nbrs = append(nbrs, idx[y])
		}
		off[i+1] = int32(len(nbrs))
	}

	// Routes long enough to vote, chained by destination: first[d] is one
	// past the index of asns[d]'s first route, next[i] one past that of the
	// route after paths[i], and 0 ends the chain.
	// reach[d] is the farthest from asns[d] any of its routes asks about.
	first, next := make([]int32, len(asns)), make([]int32, len(paths))
	weight, reach := make([]int, len(asns)), make([]int32, len(asns))
	var dests []int32
	for i := len(paths) - 1; i >= 0; i-- {
		if p := paths[i].path; len(p) >= 3 {
			d := idx[p[len(p)-1]]
			if first[d] == 0 {
				dests = append(dests, d)
			}
			next[i], first[d] = first[d], int32(i+1)
			weight[d] += paths[i].count
			reach[d] = max(reach[d], int32(len(p)-2))
		}
	}
	if maxDests > 0 && len(dests) > maxDests {
		sort.Slice(dests, func(i, j int) bool {
			if weight[dests[i]] != weight[dests[j]] {
				return weight[dests[i]] > weight[dests[j]]
			}
			return dests[i] < dests[j] // ascending ASN
		})
		dests = dests[:maxDests]
	}

	// One BFS per destination into one distance field, which that
	// destination's routes vote from before the next BFS clears it. The
	// search stops at the destination's reach: a farther AS keeps -1,
	// which no route's remaining hop count equals.
	votes := make(map[uint64]int)
	dist, queue := make([]int32, len(asns)), make([]int32, 0, len(asns))
	for i := range dist {
		dist[i] = -1
	}
	for _, d := range dests {
		for _, x := range queue {
			dist[x] = -1
		}
		dist[d] = 0
		queue = append(queue[:0], d)
		for head := 0; head < len(queue) && dist[queue[head]] < reach[d]; head++ {
			x := queue[head]
			for _, y := range nbrs[off[x]:off[x+1]] {
				if dist[y] < 0 {
					dist[y] = dist[x] + 1
					queue = append(queue, y)
				}
			}
		}
		for i := first[d]; i > 0; i = next[i-1] {
			p, count := paths[i-1].path, paths[i-1].count
			for k := 0; k+2 < len(p); k++ {
				at, taken := p[k], p[k+1]
				remaining := int32(len(p) - k - 2) // hops from the next AS to d
				ai := idx[at]
				for _, xi := range nbrs[off[ai]:off[ai+1]] {
					x := asns[xi]
					if x == taken || (k > 0 && x == p[k-1]) {
						continue
					}
					if dist[xi] == remaining {
						votes[PackTriple(at, taken, x)] += count
					}
				}
			}
		}
	}
	prefs := make(map[uint64]bool)
	for k, n := range votes {
		at, b, c := UnpackTriple(k)
		rev := votes[PackTriple(at, c, b)]
		if n >= 2 && n >= 3*rev {
			prefs[k] = true
		}
	}
	return prefs
}

// detect is the deterministic coin for simulated tool detections.
func detect(x uint64, p float64) bool {
	h := x*0x9e3779b97f4a7c15 ^ 0xD37EC7
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return float64(h>>11)/float64(1<<53) < p
}
