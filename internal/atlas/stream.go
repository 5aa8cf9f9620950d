package atlas

import (
	"math/bits"
	"slices"
	"sort"
	"sync"

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
// Finish calls it from two goroutines at once, so an implementation must
// be safe for concurrent use: both are (simTools' meter and route tables
// serve a campaign's workers; ScaleTools only reads an immutable world).
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
	// PrefsMaxDests caps the destination-AS count the preference
	// inference runs BFS for (0 = unlimited, Build's behavior). Capping
	// keeps million-prefix builds out of the O(dests * ASes) regime; the
	// kept destinations are the most-observed ones.
	PrefsMaxDests int
}

// linkInfo accumulates one directed cluster link's evidence.
type linkInfo struct {
	planes uint8
	popA   netsim.PoPID
	popB   netsim.PoPID
	// observers has bit i set when the vantage point of vpIndex i saw the
	// link.
	observers []uint64
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
	hopCl       []cluster.ClusterID // the trace's hop clusters, -1 unplaced
	pathBuf     []netsim.ASN
	keyBuf      []byte
}

// NewStreamBuilder prepares an out-of-core build.
func NewStreamBuilder(in StreamInput) *StreamBuilder {
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

// vote casts one vote for c into vs.
func vote(vs []clusterVote, c cluster.ClusterID) []clusterVote {
	for i := range vs {
		if vs[i].c == c {
			vs[i].n++
			return vs
		}
	}
	return append(vs, clusterVote{c: c, n: 1})
}

// addPath folds one observed AS path with weight w. A path seen before
// costs a lookup; a new one is copied, so p may be a reused buffer.
func (b *StreamBuilder) addPath(p []netsim.ASN, w int) {
	if len(p) < 1 {
		return
	}
	b.keyBuf = appendASPathKey(b.keyBuf[:0], p)
	if u, ok := b.uniq[string(b.keyBuf)]; ok {
		u.count += w
		return
	}
	k := string(b.keyBuf)
	b.uniq[k] = &weightedPath{path: slices.Clone(p), key: k, count: w}
}

// addLink records one directed cluster link; the interfaces of its first
// sighting place it, and vp >= 0 marks that vantage point as an observer.
func (b *StreamBuilder) addLink(ip1, ip2 netsim.IP, c1, c2 cluster.ClusterID, plane uint8, vp int) {
	k := LinkKey(c1, c2)
	li := b.links[k]
	if li == nil {
		li = &linkInfo{popA: b.in.Tools.RouterPoP(ip1), popB: b.in.Tools.RouterPoP(ip2)}
		b.links[k] = li
	}
	li.planes |= plane
	if vp >= 0 {
		for len(li.observers) <= vp/64 {
			li.observers = append(li.observers, 0)
		}
		li.observers[vp/64] |= 1 << (vp % 64)
	}
}

// AddTrace ingests one pass-2 trace: link extraction with access-tail
// reversal, attachment votes, and AS-path observation. Nothing of tr is
// retained.
func (b *StreamBuilder) AddTrace(tr *trace.Traceroute, fromVP bool) {
	cl := b.cl
	plane, vp := PlaneFromSrc, -1
	if fromVP {
		plane = PlaneToDst
		var ok bool
		if vp, ok = b.vpIndex[tr.Src]; !ok {
			vp = len(b.vpIndex)
			b.vpIndex[tr.Src] = vp
		}
		b.feedTargets[tr.Dst] = true
	}
	// Each hop's cluster, resolved once; -1 for a '*' or an unclustered
	// interface.
	b.hopCl = b.hopCl[:0]
	for _, h := range tr.Hops {
		c, ok := cl.ClusterOf[h.IP]
		if h.IP == 0 || !ok {
			c = -1
		}
		b.hopCl = append(b.hopCl, c)
	}
	originAS := b.in.Tools.OriginAS(tr.Dst)
	for i := 0; i+1 < len(tr.Hops); i++ {
		c1, c2 := b.hopCl[i], b.hopCl[i+1]
		if c1 < 0 || c2 < 0 || c1 == c2 {
			continue
		}
		ip1, ip2 := tr.Hops[i].IP, tr.Hops[i+1].IP
		b.addLink(ip1, ip2, c1, c2, plane, vp)
		// Access-tail reversal: links inside (or entering) the
		// destination's origin AS also yield the reverse direction.
		// Stubs never transit, so traceroutes can only ever *enter*
		// them; without this, no path out of a stub-attached source
		// is ever predictable. Physically these access tails are the
		// same circuits in both directions, so the annotation holds.
		if cl.ClusterAS[c2] == originAS && originAS != 0 {
			b.addLink(ip2, ip1, c2, c1, plane, vp)
		}
	}

	// Attachment votes: destinations vote with their last responsive
	// infrastructure hop, sources with their first.
	var first, last cluster.ClusterID = -1, -1
	for _, c := range b.hopCl {
		if c < 0 {
			continue
		}
		if first < 0 {
			first = c
		}
		last = c
	}
	if first >= 0 {
		b.votes[tr.Src] = vote(b.votes[tr.Src], first)
	}
	if tr.Reached && last >= 0 {
		b.votes[tr.Dst] = vote(b.votes[tr.Dst], last)
	}

	// AS-level path observation.
	b.ipsBuf = b.ipsBuf[:0]
	for _, h := range tr.Hops {
		b.ipsBuf = append(b.ipsBuf, h.IP)
	}
	if p, ok := cluster.ASPathOfFunc(b.pathBuf, b.ipsBuf, b.in.Tools.OriginAS); ok {
		b.pathBuf = p
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
// evidence and returns the atlas. The links and the paths are independent
// chains of inference, each writing its own fields of the atlas, and they
// run at once; once the paths are gathered, preference inference runs
// beside the other path stages. Every measurement's noise is keyed by what
// it measures, so neither order nor overlap can move a byte.
func (b *StreamBuilder) Finish() *Atlas {
	cl := b.cl
	a := New()
	a.Day = b.in.Day
	a.NumClusters = cl.NumClusters
	a.ClusterAS = append([]netsim.ASN(nil), cl.ClusterAS...)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		b.finishLinks(a)
		b.finishPrefixes(a)
	}()
	paths, asAdj := b.finishPaths(a)
	go func() {
		defer wg.Done()
		// Preference tuples (§4.3.3).
		a.Prefs = inferPreferences(paths, asAdj, b.in.PrefsMaxDests)
	}()
	b.finishPathSets(a, paths)
	wg.Wait()
	return a
}

const (
	// linkRedundancy is how many observing vantage points the frontier
	// assignment puts on each link to measure its latency.
	linkRedundancy = 2
	// lossProbes is the probe-train length per link loss measurement.
	lossProbes = 100
)

// finishLinks annotates the observed links (Links, Loss) and detects
// late-exit adjacencies among them (LateExit).
func (b *StreamBuilder) finishLinks(a *Atlas) {
	in := b.in
	// Frontier-assign links to vantage points and annotate, in key order:
	// (From, To) order, the order an atlas keeps its links in.
	keys := make([]uint64, 0, len(b.links))
	for k := range b.links {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	observers := make([][]int, len(keys))
	for i, k := range keys {
		for w, word := range b.links[k].observers {
			for ; word != 0; word &= word - 1 {
				observers[i] = append(observers[i], w*64+bits.TrailingZeros64(word))
			}
		}
	}
	assign := frontier.Assign(observers, linkRedundancy)
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
			loss := in.Tools.MeasureLinkLoss(phys, li.popA, lossProbes)
			if loss >= 0.005 {
				a.Loss[k] = float32(loss)
			}
		}
	}

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
}

// finishPrefixes elects each prefix's attachment cluster (PrefixCluster,
// IfaceCluster) and copies the origin table (PrefixAS).
func (b *StreamBuilder) finishPrefixes(a *Atlas) {
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
	for ip, c := range b.cl.ClusterOf {
		p := netsim.PrefixOf(ip)
		ifaceVotes[p] = vote(ifaceVotes[p], c)
	}
	for p, vs := range ifaceVotes {
		a.IfaceCluster[p] = pickBestVote(vs)
	}

	// BGP origin table (full, as RouteViews provides).
	b.in.Tools.ForEachPrefixOrigin(func(p netsim.Prefix, asn netsim.ASN) {
		a.PrefixAS[p] = asn
	})
}

// finishPaths folds the feeds' paths into the observed ones and returns
// them in key order with the observed AS graph, whose degrees it records
// (ASDegree).
func (b *StreamBuilder) finishPaths(a *Atlas) ([]*weightedPath, map[netsim.ASN]map[netsim.ASN]bool) {
	// BGP feeds advertise paths for every prefix targeted by the
	// campaign (a full-table stand-in).
	feedList := make([]netsim.Prefix, 0, len(b.feedTargets))
	for p := range b.feedTargets {
		feedList = append(feedList, p)
	}
	sort.Slice(feedList, func(i, j int) bool { return feedList[i] < feedList[j] })
	for _, p := range feedList {
		b.in.Tools.FeedPaths(p, func(fp []netsim.ASN) { b.addPath(fp, 1) })
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
	return paths, asAdj
}

// finishPathSets records what the observed paths show directly: the
// 3-tuples, the providers and the relationships (Tuples, Providers, Rels).
func (b *StreamBuilder) finishPathSets(a *Atlas, paths []*weightedPath) {
	// 3-tuples with commutative closure, recorded only when the middle
	// AS clears DegreeThreshold.
	for _, u := range paths {
		p := u.path
		for i := 0; i+2 < len(p); i++ {
			if a.ASDegree[p[i+1]] <= DegreeThreshold {
				continue
			}
			a.Tuples[PackTriple(p[i], p[i+1], p[i+2])] = true
			a.Tuples[PackTriple(p[i+2], p[i+1], p[i])] = true
		}
	}

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
}
