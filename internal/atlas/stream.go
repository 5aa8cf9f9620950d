package atlas

import (
	"sort"

	"inano/internal/bgpsim"
	"inano/internal/cluster"
	"inano/internal/frontier"
	"inano/internal/netsim"
	"inano/internal/trace"
)

// Tools abstracts the simulated measurement and resolution toolbox the
// builder consults alongside the traceroute stream: physical-link
// annotation probes, BGP feed snapshots, the origin table, alias/DNS
// clustering, and late-exit detection. Build wires it to a materialized
// Topology/Day/Meter triple; internet-scale worlds wire it to
// netsim.ScaleWorld arithmetic so nothing world-sized is materialized.
type Tools interface {
	// RouterPoP places an infrastructure interface, or -1.
	RouterPoP(ip netsim.IP) netsim.PoPID
	// OriginAS is the BGP origin of a prefix, or 0.
	OriginAS(p netsim.Prefix) netsim.ASN
	// PhysicalLink locates the measurable link joining two PoPs, or -1.
	PhysicalLink(a, b netsim.PoPID) netsim.LinkID
	// MeasureLinkLatency / CoarseLinkLatency / MeasureLinkLoss are the
	// per-link measurement probes (precise for frontier-assigned VPs,
	// coarse otherwise).
	MeasureLinkLatency(l netsim.LinkID) float64
	CoarseLinkLatency(l netsim.LinkID) float64
	MeasureLinkLoss(l netsim.LinkID, from netsim.PoPID, probes int) float64
	// LateExitTruth reports whether the AS pair runs late-exit routing.
	LateExitTruth(pair uint64) bool
	// ForEachPrefixOrigin streams the full origin table.
	ForEachPrefixOrigin(emit func(p netsim.Prefix, as netsim.ASN))
	// FeedPaths emits each BGP feed's AS path toward dst.
	FeedPaths(dst netsim.Prefix, emit func(path []netsim.ASN))
	// Cluster groups observed infrastructure interfaces into PoP clusters.
	Cluster(ifaces []netsim.IP) *cluster.Clustering
}

// simTools adapts the materialized simulation world to Tools.
type simTools struct {
	top        *netsim.Topology
	day        *bgpsim.Day
	meter      *trace.Meter
	feeds      []netsim.ASN
	clusterCfg cluster.Config
}

// NewSimTools wires Tools to a materialized topology, BGP day, and meter
// — the toolbox Build has always used.
func NewSimTools(top *netsim.Topology, day *bgpsim.Day, meter *trace.Meter, feeds []netsim.ASN, clusterCfg cluster.Config) Tools {
	return &simTools{top: top, day: day, meter: meter, feeds: feeds, clusterCfg: clusterCfg}
}

func (t *simTools) RouterPoP(ip netsim.IP) netsim.PoPID { return t.top.RouterPoP(ip) }
func (t *simTools) OriginAS(p netsim.Prefix) netsim.ASN { return t.top.PrefixOrigin[p] }
func (t *simTools) LateExitTruth(pair uint64) bool      { return t.top.LateExit[pair] }
func (t *simTools) MeasureLinkLatency(l netsim.LinkID) float64 {
	return t.meter.MeasureLinkLatency(l)
}
func (t *simTools) CoarseLinkLatency(l netsim.LinkID) float64 {
	return t.meter.CoarseLinkLatency(l)
}
func (t *simTools) MeasureLinkLoss(l netsim.LinkID, from netsim.PoPID, probes int) float64 {
	return t.meter.MeasureLinkLoss(l, from, probes)
}

// PhysicalLink locates the lowest-latency ground-truth link joining two
// PoPs. Returns -1 if the PoPs are not directly joined (possible when
// clustering merged remote interfaces; the builder then falls back to a
// default annotation).
func (t *simTools) PhysicalLink(a, b netsim.PoPID) netsim.LinkID {
	return physicalLink(t.top, a, b)
}

func (t *simTools) ForEachPrefixOrigin(emit func(p netsim.Prefix, as netsim.ASN)) {
	for p, asn := range t.top.PrefixOrigin {
		emit(p, asn)
	}
}

func (t *simTools) FeedPaths(dst netsim.Prefix, emit func(path []netsim.ASN)) {
	for _, feed := range t.feeds {
		if fp, ok := t.day.ASPath(feed, dst); ok {
			emit(fp)
		}
	}
}

func (t *simTools) Cluster(ifaces []netsim.IP) *cluster.Clustering {
	return cluster.Cluster(t.top, ifaces, t.clusterCfg)
}

// StreamInput configures an out-of-core build.
type StreamInput struct {
	Tools Tools
	// Day stamps the atlas.
	Day int
	// Clusters optionally supplies a precomputed (registry-stabilized)
	// clustering; when nil the builder clusters pass-1 interfaces itself.
	Clusters *cluster.Clustering
	// LossProbes, Redundancy, DegreeThreshold as in BuildInput.
	LossProbes      int
	Redundancy      int
	DegreeThreshold int
	// PrefsMaxDests caps the destination-AS count the preference
	// inference runs BFS for (0 = unlimited, Build's behavior). Capping
	// keeps million-prefix builds out of the O(dests * ASes) regime; the
	// kept destinations are the most-observed ones.
	PrefsMaxDests int
}

// linkInfo accumulates one directed cluster link's evidence.
type linkInfo struct {
	planes    uint8
	popA      netsim.PoPID
	popB      netsim.PoPID
	observers map[int]bool
}

// clusterVote is one (cluster, count) attachment vote; votes per prefix
// are a short inline slice rather than a map so million-prefix builds
// stay cheap.
type clusterVote struct {
	c cluster.ClusterID
	n int32
}

// StreamBuilder ingests a traceroute stream one trace at a time and
// produces the same atlas Build produces from materialized slices, with
// memory bounded by the atlas (clusters, links, observed paths), not the
// trace corpus. Usage is two passes over the same deterministic stream:
//
//	sb := NewStreamBuilder(in)
//	emit(func(tr, fromVP) { sb.ObserveIfaces(tr) })   // pass 1 (skipped when in.Clusters != nil)
//	sb.StartTraces()
//	emit(func(tr, fromVP) { sb.AddTrace(tr, fromVP) }) // pass 2, VP traces before client traces
//	a := sb.Finish()
//
// Traces may alias a reused buffer: nothing of a trace is retained
// across calls. AddTrace must see vantage-point traces in a stable order
// (frontier assignment indexes VPs by first appearance).
type StreamBuilder struct {
	in StreamInput

	ifaceSet map[netsim.IP]bool
	cl       *cluster.Clustering

	links       map[uint64]*linkInfo
	vpIndex     map[netsim.Prefix]int
	votes       map[netsim.Prefix][]clusterVote
	uniq        map[string]*weightedPath
	feedTargets map[netsim.Prefix]bool
	ipsBuf      []netsim.IP
}

// NewStreamBuilder prepares an out-of-core build.
func NewStreamBuilder(in StreamInput) *StreamBuilder {
	if in.LossProbes <= 0 {
		in.LossProbes = 100
	}
	if in.Redundancy <= 0 {
		in.Redundancy = 2
	}
	if in.DegreeThreshold <= 0 {
		in.DegreeThreshold = 5
	}
	return &StreamBuilder{
		in:          in,
		ifaceSet:    make(map[netsim.IP]bool),
		links:       make(map[uint64]*linkInfo),
		vpIndex:     make(map[netsim.Prefix]int),
		votes:       make(map[netsim.Prefix][]clusterVote),
		uniq:        make(map[string]*weightedPath),
		feedTargets: make(map[netsim.Prefix]bool),
	}
}

// ObserveIfaces records a pass-1 trace's responsive hop interfaces for
// clustering. A no-op when a precomputed clustering was supplied.
func (b *StreamBuilder) ObserveIfaces(tr *trace.Traceroute) {
	if b.in.Clusters != nil {
		return
	}
	for _, h := range tr.Hops {
		if h.IP != 0 {
			b.ifaceSet[h.IP] = true
		}
	}
}

// StartTraces closes pass 1: the interface set is clustered (or the
// supplied clustering adopted) and pass-2 ingestion may begin.
func (b *StreamBuilder) StartTraces() {
	if b.in.Clusters != nil {
		b.cl = b.in.Clusters
		return
	}
	ifaces := make([]netsim.IP, 0, len(b.ifaceSet))
	for ip := range b.ifaceSet {
		ifaces = append(ifaces, ip)
	}
	b.ifaceSet = nil
	b.cl = b.in.Tools.Cluster(ifaces)
}

// addVote casts one attachment vote.
func (b *StreamBuilder) addVote(p netsim.Prefix, c cluster.ClusterID) {
	vs := b.votes[p]
	for i := range vs {
		if vs[i].c == c {
			vs[i].n++
			return
		}
	}
	b.votes[p] = append(vs, clusterVote{c: c, n: 1})
}

// addPath folds one observed AS path with weight w.
func (b *StreamBuilder) addPath(p []netsim.ASN, w int) {
	if len(p) < 1 {
		return
	}
	k := asPathKey(p)
	if u, ok := b.uniq[k]; ok {
		u.count += w
		return
	}
	b.uniq[k] = &weightedPath{path: p, key: k, count: w}
}

// AddTrace ingests one pass-2 trace: link extraction with access-tail
// reversal, attachment votes, and AS-path observation. Nothing of tr is
// retained.
func (b *StreamBuilder) AddTrace(tr *trace.Traceroute, fromVP bool) {
	cl := b.cl
	plane := PlaneFromSrc
	if fromVP {
		plane = PlaneToDst
		if _, ok := b.vpIndex[tr.Src]; !ok {
			b.vpIndex[tr.Src] = len(b.vpIndex)
		}
		b.feedTargets[tr.Dst] = true
	}
	originAS := b.in.Tools.OriginAS(tr.Dst)
	add := func(ip1, ip2 netsim.IP, c1, c2 cluster.ClusterID) {
		k := LinkKey(c1, c2)
		li := b.links[k]
		if li == nil {
			li = &linkInfo{
				popA:      b.in.Tools.RouterPoP(ip1),
				popB:      b.in.Tools.RouterPoP(ip2),
				observers: make(map[int]bool),
			}
			b.links[k] = li
		}
		li.planes |= plane
		if fromVP {
			li.observers[b.vpIndex[tr.Src]] = true
		}
	}
	for i := 0; i+1 < len(tr.Hops); i++ {
		ip1, ip2 := tr.Hops[i].IP, tr.Hops[i+1].IP
		if ip1 == 0 || ip2 == 0 {
			continue
		}
		c1, ok1 := cl.ClusterOf[ip1]
		c2, ok2 := cl.ClusterOf[ip2]
		if !ok1 || !ok2 || c1 == c2 {
			continue
		}
		add(ip1, ip2, c1, c2)
		// Access-tail reversal: links inside (or entering) the
		// destination's origin AS also yield the reverse direction.
		// Stubs never transit, so traceroutes can only ever *enter*
		// them; without this, no path out of a stub-attached source
		// is ever predictable. Physically these access tails are the
		// same circuits in both directions, so the annotation holds.
		if cl.ClusterAS[c2] == originAS && originAS != 0 {
			add(ip2, ip1, c2, c1)
		}
	}

	// Attachment votes: destinations vote with their last responsive
	// infrastructure hop, sources with their first.
	var first, last cluster.ClusterID = -1, -1
	for _, h := range tr.Hops {
		if h.IP == 0 {
			continue
		}
		c, ok := cl.ClusterOf[h.IP]
		if !ok {
			continue
		}
		if first < 0 {
			first = c
		}
		last = c
	}
	if first >= 0 {
		b.addVote(tr.Src, first)
	}
	if tr.Reached && last >= 0 {
		b.addVote(tr.Dst, last)
	}

	// AS-level path observation.
	b.ipsBuf = b.ipsBuf[:0]
	for _, h := range tr.Hops {
		b.ipsBuf = append(b.ipsBuf, h.IP)
	}
	if p, ok := cluster.ASPathOfFunc(b.ipsBuf, b.in.Tools.OriginAS); ok {
		b.addPath(p, 1)
	}
}

// pickBestVote resolves an attachment election; the comparison is a
// strict total order, so the result is iteration-order independent.
func pickBestVote(vs []clusterVote) cluster.ClusterID {
	best, bestN := cluster.ClusterID(-1), int32(-1)
	for _, v := range vs {
		if v.n > bestN || (v.n == bestN && v.c < best) {
			best, bestN = v.c, v.n
		}
	}
	return best
}

// Finish runs the aggregate inference stages over the accumulated
// evidence and returns the atlas.
func (b *StreamBuilder) Finish() *Atlas {
	in := b.in
	cl := b.cl
	a := New()
	a.Day = in.Day
	a.NumClusters = cl.NumClusters
	a.ClusterAS = append([]netsim.ASN(nil), cl.ClusterAS...)

	// Frontier-assign links to vantage points and annotate.
	keys := make([]uint64, 0, len(b.links))
	for k := range b.links {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	observers := make([][]int, len(keys))
	for i, k := range keys {
		for vp := range b.links[k].observers {
			observers[i] = append(observers[i], vp)
		}
		sort.Ints(observers[i])
	}
	assign := frontier.Assign(observers, in.Redundancy)
	for i, k := range keys {
		li := b.links[k]
		phys := in.Tools.PhysicalLink(li.popA, li.popB)
		var lat float64
		if len(assign[i]) > 0 && phys >= 0 {
			// Assigned vantage points measure precisely; average the
			// redundant samples.
			sum := 0.0
			for range assign[i] {
				sum += in.Tools.MeasureLinkLatency(phys)
			}
			lat = sum / float64(len(assign[i]))
		} else if phys >= 0 {
			lat = in.Tools.CoarseLinkLatency(phys)
		} else {
			lat = 1.0 // adjacent clusters of one PoP pair we cannot place
		}
		a.Links = append(a.Links, Link{
			From:      cluster.ClusterID(k >> 32),
			To:        cluster.ClusterID(uint32(k)),
			LatencyMS: float32(lat),
			Planes:    li.planes,
		})
		if len(assign[i]) > 0 && phys >= 0 {
			loss := in.Tools.MeasureLinkLoss(phys, li.popA, in.LossProbes)
			if loss >= 0.005 {
				a.Loss[k] = float32(loss)
			}
		}
	}

	// Prefix attachment elections.
	for p, vs := range b.votes {
		a.PrefixCluster[p] = pickBestVote(vs)
	}

	// Interface prefixes: every clustered interface votes its /24 for
	// its own cluster, building the hop-placement table (IfaceCluster)
	// the upstream-observation ingest resolves uploaded traceroute hops
	// through. A /24 spanning several clusters goes to the majority — a
	// coarsening the agreement voting downstream tolerates.
	ifaceVotes := make(map[netsim.Prefix][]clusterVote)
	for ip, c := range cl.ClusterOf {
		p := netsim.PrefixOf(ip)
		vs := ifaceVotes[p]
		grown := false
		for i := range vs {
			if vs[i].c == c {
				vs[i].n++
				grown = true
				break
			}
		}
		if !grown {
			ifaceVotes[p] = append(vs, clusterVote{c: c, n: 1})
		}
	}
	for p, vs := range ifaceVotes {
		a.IfaceCluster[p] = pickBestVote(vs)
	}

	// BGP origin table (full, as RouteViews provides).
	in.Tools.ForEachPrefixOrigin(func(p netsim.Prefix, asn netsim.ASN) {
		a.PrefixAS[p] = asn
	})

	// BGP feeds advertise paths for every prefix targeted by the
	// campaign (a full-table stand-in).
	feedList := make([]netsim.Prefix, 0, len(b.feedTargets))
	for p := range b.feedTargets {
		feedList = append(feedList, p)
	}
	sort.Slice(feedList, func(i, j int) bool { return feedList[i] < feedList[j] })
	for _, p := range feedList {
		in.Tools.FeedPaths(p, func(fp []netsim.ASN) { b.addPath(fp, 1) })
	}
	paths := make([]*weightedPath, 0, len(b.uniq))
	for _, u := range b.uniq {
		paths = append(paths, u)
	}
	sort.Slice(paths, func(i, j int) bool { return paths[i].key < paths[j].key })

	// AS degrees over the observed AS graph.
	asAdj := make(map[netsim.ASN]map[netsim.ASN]bool)
	addAdj := func(x, y netsim.ASN) {
		m := asAdj[x]
		if m == nil {
			m = make(map[netsim.ASN]bool)
			asAdj[x] = m
		}
		m[y] = true
	}
	for _, u := range paths {
		for i := 0; i+1 < len(u.path); i++ {
			addAdj(u.path[i], u.path[i+1])
			addAdj(u.path[i+1], u.path[i])
		}
	}
	for asn, nbs := range asAdj {
		a.ASDegree[asn] = int32(len(nbs))
	}

	// 3-tuples with commutative closure, recorded only when the middle
	// AS clears the degree threshold (low-degree edge ASes are too poorly
	// observed for the check to be sound, §4.3.2).
	for _, u := range paths {
		p := u.path
		for i := 0; i+2 < len(p); i++ {
			if int(a.ASDegree[p[i+1]]) <= in.DegreeThreshold {
				continue
			}
			a.Tuples[PackTriple(p[i], p[i+1], p[i+2])] = true
			a.Tuples[PackTriple(p[i+2], p[i+1], p[i])] = true
		}
	}

	// Preference tuples (§4.3.3).
	a.Prefs = inferPreferences(paths, asAdj, in.PrefsMaxDests)

	// Provider mappings: penultimate ASes of paths that terminate at
	// the origin.
	provSet := make(map[netsim.ASN]map[netsim.ASN]bool)
	for _, u := range paths {
		p := u.path
		if len(p) < 2 {
			continue
		}
		d, up := p[len(p)-1], p[len(p)-2]
		m := provSet[d]
		if m == nil {
			m = make(map[netsim.ASN]bool)
			provSet[d] = m
		}
		m[up] = true
	}
	for d, ups := range provSet {
		list := make([]netsim.ASN, 0, len(ups))
		for u := range ups {
			list = append(list, u)
		}
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		a.Providers[d] = list
	}

	// Gao relationship inference for the GRAPH baseline.
	plain := make([][]netsim.ASN, len(paths))
	for i, u := range paths {
		plain[i] = u.path
	}
	a.Rels = cluster.InferRelationships(plain)

	// Late-exit detection (Spring et al. [54] stand-in): adjacencies
	// present in the observed link set are tested against the ground
	// truth with a 90% detection rate.
	seenPairs := make(map[uint64]bool)
	for _, l := range a.Links {
		x, y := a.ClusterAS[l.From], a.ClusterAS[l.To]
		if x != y && x != 0 && y != 0 {
			seenPairs[netsim.ASPairKey(x, y)] = true
		}
	}
	for k := range seenPairs {
		if in.Tools.LateExitTruth(k) && detect(k, 0.9) {
			a.LateExit[k] = true
		}
	}

	sort.Slice(a.Links, func(i, j int) bool {
		if a.Links[i].From != a.Links[j].From {
			return a.Links[i].From < a.Links[j].From
		}
		return a.Links[i].To < a.Links[j].To
	})
	a.invalidateIndex()
	return a
}
