package core

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"inano/internal/atlas"
	"inano/internal/cluster"
	"inano/internal/netsim"
)

// This file pins the flat-compiled engine to a reference implementation
// that runs the same backtracking Dijkstra directly over the map-based
// atlas (the shape the engine had before the serving form was compiled).
// Trees must match node-for-node — costs, chosen next-hops, pending
// late-exit counters, and next-AS annotations — and query answers must
// match field-for-field, across every option variant.

// refTree is the reference's own result: the five per-node labels the
// textbook algorithm keeps, plus the link each label was reached over.
type refTree struct {
	cost   []uint64
	next   []int32 // -1 at the destination and when unreached
	pend   []uint8
	nextAS []netsim.ASN
	link   []*refEdge // nil at the destination, over cross edges, unreached
}

// heapItem orders by cost, then node id for determinism.
type heapItem struct {
	cost uint64
	node int32
}

// costHeap is the reference's queue: a textbook binary heap over the
// (cost, node) pair, the order production's costQueue must reproduce.
type costHeap []heapItem

func (h costHeap) less(i, j int) bool {
	if h[i].cost != h[j].cost {
		return h[i].cost < h[j].cost
	}
	return h[i].node < h[j].node
}

func (h *costHeap) push(it heapItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h).less(p, i) {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *costHeap) pop() heapItem {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && (*h).less(l, small) {
			small = l
		}
		if r < n && (*h).less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}

func TestHeapOrdering(t *testing.T) {
	var h costHeap
	h.push(heapItem{5, 1})
	h.push(heapItem{3, 9})
	h.push(heapItem{3, 2})
	h.push(heapItem{7, 0})
	want := []heapItem{{3, 2}, {3, 9}, {5, 1}, {7, 0}}
	for i, w := range want {
		got := h.pop()
		if got != w {
			t.Fatalf("pop %d = %v, want %v", i, got, w)
		}
	}
}

// refEngine is the map-backed reference. It mirrors the production node
// encoding and cost metric but reads links, relationships, tuples, and
// degrees straight out of atlas maps.
type refEngine struct {
	a    *atlas.Atlas
	opts Options

	numClusters int
	planes      int
	statesPerCl int

	in [][]refEdge
}

type refEdge struct {
	from   cluster.ClusterID
	to     cluster.ClusterID
	lat    float32
	planes uint8
	fromAS netsim.ASN
	toAS   netsim.ASN
	late   bool
	rel    netsim.Rel
	sameAS bool
}

func newRefEngine(a *atlas.Atlas, opts Options) *refEngine {
	r := &refEngine{a: a, opts: opts, numClusters: a.NumClusters}
	r.planes = 1
	if opts.Asymmetry {
		r.planes = 2
	}
	r.statesPerCl = r.planes
	if !opts.ThreeTuple {
		r.statesPerCl *= 2
	}
	r.in = make([][]refEdge, a.NumClusters)
	for _, l := range a.Links {
		if int(l.From) >= a.NumClusters || int(l.To) >= a.NumClusters {
			continue
		}
		fa, ta := a.ClusterAS[l.From], a.ClusterAS[l.To]
		r.in[l.To] = append(r.in[l.To], refEdge{
			from:   l.From,
			to:     l.To,
			lat:    l.LatencyMS,
			planes: l.Planes,
			fromAS: fa,
			toAS:   ta,
			late:   fa != ta && a.LateExit[netsim.ASPairKey(fa, ta)],
			rel:    a.RelOf(fa, ta),
			sameAS: fa == ta,
		})
	}
	return r
}

func (r *refEngine) nodeID(c cluster.ClusterID, plane, ud int) int32 {
	if r.opts.ThreeTuple {
		return int32(c)*int32(r.planes) + int32(plane)
	}
	return int32(c)*int32(2*r.planes) + int32(plane)*2 + int32(ud)
}

func (r *refEngine) nodeCluster(id int32) cluster.ClusterID {
	if r.opts.ThreeTuple {
		return cluster.ClusterID(id / int32(r.planes))
	}
	return cluster.ClusterID(id / int32(2*r.planes))
}

func (r *refEngine) nodePlane(id int32) int {
	if r.opts.ThreeTuple {
		return int(id) % r.planes
	}
	return int(id) / 2 % r.planes
}

func (r *refEngine) nodeUD(id int32) int {
	if r.opts.ThreeTuple {
		return stateUp
	}
	return int(id) % 2
}

func (r *refEngine) numNodes() int { return r.numClusters * r.statesPerCl }

func (r *refEngine) run(dst cluster.ClusterID, originAS netsim.ASN) *refTree {
	n := r.numNodes()
	t := &refTree{
		cost:   make([]uint64, n),
		next:   make([]int32, n),
		pend:   make([]uint8, n),
		nextAS: make([]netsim.ASN, n),
		link:   make([]*refEdge, n),
	}
	for i := range t.cost {
		t.cost[i] = infCost
		t.next[i] = -1
	}
	settled := make([]bool, n)
	var h costHeap

	start := r.nodeID(dst, planeToDst, stateDown)
	t.cost[start] = 0
	h.push(heapItem{0, start})

	maxPhase := 1
	if !r.opts.ThreeTuple {
		maxPhase = 3
	}
	for phase := 1; phase <= maxPhase; phase++ {
		if phase > 1 {
			for id := int32(0); id < int32(n); id++ {
				if settled[id] {
					r.relaxFrom(t, originAS, &h, settled, id, phase)
				}
			}
		}
		for len(h) > 0 {
			it := h.pop()
			if settled[it.node] || it.cost != t.cost[it.node] {
				continue
			}
			settled[it.node] = true
			r.relaxFrom(t, originAS, &h, settled, it.node, phase)
		}
	}
	return t
}

func (r *refEngine) relaxFrom(t *refTree, originAS netsim.ASN, h *costHeap, settled []bool, wid int32, phase int) {
	wc := r.nodeCluster(wid)
	wPlane := r.nodePlane(wid)
	wUD := r.nodeUD(wid)
	wCost := t.cost[wid]
	wPend := t.pend[wid]
	wNextAS := t.nextAS[wid]

	planeBit := uint8(atlas.PlaneToDst)
	if wPlane == planeFromSrc {
		planeBit = atlas.PlaneFromSrc
	}

	for i := range r.in[wc] {
		ed := &r.in[wc][i]
		if ed.planes&planeBit == 0 {
			continue
		}
		var vUD int
		edgePhase := 1
		if r.opts.ThreeTuple {
			vUD = stateUp
			if !r.tupleOK(ed, wNextAS) {
				continue
			}
		} else {
			var ok bool
			vUD, edgePhase, ok = refGraphTransition(ed, wUD)
			if !ok {
				continue
			}
		}
		if edgePhase > phase {
			continue
		}
		if r.opts.Providers && !r.providerOK(ed, originAS) {
			continue
		}

		vid := r.nodeID(ed.from, wPlane, vUD)
		if settled[vid] {
			continue
		}
		newCost, newPend := refRelaxCost(wCost, wPend, ed)
		vNextAS := wNextAS
		if !ed.sameAS {
			vNextAS = ed.toAS
		}
		switch {
		case newCost < t.cost[vid]:
			t.cost[vid] = newCost
			t.next[vid] = wid
			t.pend[vid] = newPend
			t.nextAS[vid] = vNextAS
			t.link[vid] = ed
			h.push(heapItem{newCost, vid})
		case newCost == t.cost[vid] && r.opts.Preferences &&
			vNextAS != t.nextAS[vid] &&
			r.a.Prefers(ed.fromAS, vNextAS, t.nextAS[vid]):
			t.next[vid] = wid
			t.pend[vid] = newPend
			t.nextAS[vid] = vNextAS
			t.link[vid] = ed
		}
	}

	relaxZero := func(vid int32) {
		if vid < 0 || settled[vid] {
			return
		}
		if wCost < t.cost[vid] {
			t.cost[vid] = wCost
			t.next[vid] = wid
			t.pend[vid] = wPend
			t.nextAS[vid] = wNextAS
			t.link[vid] = nil
			h.push(heapItem{wCost, vid})
		}
	}
	if !r.opts.ThreeTuple && wUD == stateDown {
		relaxZero(r.nodeID(wc, wPlane, stateUp))
	}
	if r.opts.Asymmetry && wPlane == planeToDst {
		relaxZero(r.nodeID(wc, planeFromSrc, wUD))
	}
}

func refRelaxCost(wCost uint64, wPend uint8, ed *refEdge) (uint64, uint8) {
	h := costHops(wCost)
	eu := wCost & costEMask
	switch {
	case ed.sameAS:
		return packCost(h, eu+latUnits(ed.lat)), wPend
	case ed.late:
		if wPend < math.MaxUint8 {
			wPend++
		}
		return packCost(h, eu+latUnits(ed.lat)), wPend
	default:
		return max(packCost(h+uint32(wPend)+1, 0), wCost), 0
	}
}

func refGraphTransition(ed *refEdge, wUD int) (vUD, phase int, ok bool) {
	switch {
	case ed.sameAS || ed.rel == netsim.RelSibling:
		return wUD, 1, true
	case ed.rel == netsim.RelProvider:
		if wUD != stateUp {
			return 0, 0, false
		}
		return stateUp, 3, true
	case ed.rel == netsim.RelCustomer:
		if wUD != stateDown {
			return 0, 0, false
		}
		return stateDown, 1, true
	default:
		if wUD != stateDown {
			return 0, 0, false
		}
		return stateUp, 2, true
	}
}

func (r *refEngine) tupleOK(ed *refEdge, wNextAS netsim.ASN) bool {
	if ed.sameAS || wNextAS == 0 {
		return true
	}
	if ed.toAS == wNextAS || ed.fromAS == wNextAS || ed.fromAS == ed.toAS {
		return true
	}
	if r.a.ASDegree[ed.toAS] <= atlas.DegreeThreshold {
		return true
	}
	return r.a.HasTuple(ed.fromAS, ed.toAS, wNextAS)
}

func (r *refEngine) providerOK(ed *refEdge, originAS netsim.ASN) bool {
	if ed.sameAS || ed.toAS != originAS {
		return true
	}
	provs := r.a.Providers[ed.toAS]
	if len(provs) == 0 {
		return true
	}
	for _, p := range provs {
		if p == ed.fromAS {
			return true
		}
	}
	return false
}

// predictForward mirrors the production forward prediction, map-backed.
func (r *refEngine) predictForward(src, dst netsim.Prefix, adjust bool) Prediction {
	srcCl, okS := r.a.PrefixCluster[src]
	dstCl, okD := r.a.PrefixCluster[dst]
	if !okS || !okD {
		return Prediction{}
	}
	t := r.run(dstCl, r.a.PrefixAS[dst])
	p := r.pathFrom(t, srcCl)
	if !p.Found {
		return p
	}
	p.DstCluster = dstCl
	p.ASPath = r.asPath(p.Clusters, r.a.PrefixAS[src], r.a.PrefixAS[dst])
	if adjust {
		adj := float64(r.a.GlobalAdjustMS[dst]) + float64(r.a.AdjustMS[dst])
		if adj != 0 {
			p.LatencyMS += adj
			if p.LatencyMS < 0.05 {
				p.LatencyMS = 0.05
			}
		}
	}
	return p
}

func (r *refEngine) pathFrom(t *refTree, srcCl cluster.ClusterID) Prediction {
	var startIDs []int32
	if r.opts.Asymmetry {
		startIDs = append(startIDs, r.nodeID(srcCl, planeFromSrc, stateUp))
	}
	startIDs = append(startIDs, r.nodeID(srcCl, planeToDst, stateUp))
	var start int32 = -1
	for _, id := range startIDs {
		if t.cost[id] != infCost {
			start = id
			break
		}
	}
	if start < 0 {
		return Prediction{}
	}
	p := Prediction{Found: true}
	deliver := 1.0
	prevCl := cluster.ClusterID(-1)
	steps := 0
	for id := start; id >= 0; id = t.next[id] {
		if steps++; steps > r.numNodes()+1 {
			return Prediction{}
		}
		c := r.nodeCluster(id)
		if c != prevCl {
			if prevCl >= 0 {
				if li := r.a.LinkAt(prevCl, c); li >= 0 {
					l := &r.a.Links[li]
					p.LatencyMS += float64(l.LatencyMS)
					deliver *= 1 - r.a.LossOf(prevCl, c)
				}
			}
			p.Clusters = append(p.Clusters, c)
			prevCl = c
		}
	}
	p.LossRate = 1 - deliver
	return p
}

func (r *refEngine) asPath(clusters []cluster.ClusterID, srcAS, dstAS netsim.ASN) []netsim.ASN {
	out := make([]netsim.ASN, 0, len(clusters)+2)
	if srcAS != 0 {
		out = append(out, srcAS)
	}
	for _, c := range clusters {
		a := r.a.ClusterAS[c]
		if a == 0 {
			continue
		}
		if n := len(out); n > 0 && out[n-1] == a {
			continue
		}
		out = append(out, a)
	}
	if dstAS != 0 && (len(out) == 0 || out[len(out)-1] != dstAS) {
		out = append(out, dstAS)
	}
	return out
}

// unpack decodes a tree's hop words into the two arrays a tree used to
// keep: for every node the next node toward the destination (-1 at the
// destination, noRoute when unreached) and the CSR index of the link taken
// (-1 when the step is none or a cross edge).
func (e *Engine) unpack(t *tree) (next, edge []int32) {
	next, edge = make([]int32, len(t.hop)), make([]int32, len(t.hop))
	for i, h := range t.hop {
		id := int32(i)
		c, plane, ud := e.nodeCluster(id), e.nodePlane(id), e.nodeUD(id)
		next[i], edge[i] = h, -1
		switch {
		case h < 0: // noRoute and hopDest read the same in both shapes
		case h == hopTurn:
			next[i] = e.nodeID(c, plane, stateDown)
		case h == hopToDst:
			next[i] = e.nodeID(c, planeToDst, ud)
		default:
			next[i], edge[i] = e.nodeID(e.edgeTo[h>>2], plane, int(h&1)), h>>2
		}
	}
	return next, edge
}

// fullTree runs k's whole search in one extension on sc, whose labels then
// describe the tree until sc is reused.
func (e *Engine) fullTree(sc *runScratch, k uint64) *tree {
	t := e.newTree(k)
	e.search(t, sc, nil, 0)
	return t
}

// sameTrees compares a reference run with a production tree node for node
// wherever the tree has settled: the labels the search left there (cost,
// pend, nextAS), the next node each hop word decodes to, and the CSR edge it
// names, which must be the very link the reference relaxed over. Once the
// search is done, a node is settled exactly when the reference reached it,
// and one that is not has no hop word.
func sameTrees(t *testing.T, name string, dst cluster.ClusterID, ref *refTree, e *Engine, got *tree, lab []label) {
	t.Helper()
	if len(ref.cost) != len(got.hop) || len(ref.cost) != len(lab) {
		t.Fatalf("%s dst=%d: tree has %d nodes and %d labels, reference %d",
			name, dst, len(got.hop), len(lab), len(ref.cost))
	}
	f := e.f
	next, edge := e.unpack(got)
	for id := range ref.cost {
		if !got.has(int32(id)) {
			if got.done.Load() && (ref.cost[id] != infCost || got.hop[id] != noRoute) {
				t.Fatalf("%s dst=%d node=%d: unsettled in a done tree with hop %d, reference cost %d", name, dst, id, got.hop[id], ref.cost[id])
			}
			continue
		}
		if ref.cost[id] != lab[id].cost {
			t.Fatalf("%s dst=%d node=%d: cost %d, reference %d", name, dst, id, lab[id].cost, ref.cost[id])
		}
		if ref.cost[id] == infCost {
			t.Fatalf("%s dst=%d node=%d: settled, the reference never reached it", name, dst, id)
		}
		if ref.next[id] != next[id] {
			t.Fatalf("%s dst=%d node=%d: next %d, reference %d", name, dst, id, next[id], ref.next[id])
		}
		if ref.pend[id] != lab[id].pend {
			t.Fatalf("%s dst=%d node=%d: pend %d, reference %d", name, dst, id, lab[id].pend, ref.pend[id])
		}
		if ref.nextAS[id] != lab[id].nextAS {
			t.Fatalf("%s dst=%d node=%d: nextAS %d, reference %d", name, dst, id, lab[id].nextAS, ref.nextAS[id])
		}
		ei, link := edge[id], ref.link[id]
		switch {
		case link == nil && ei != -1:
			t.Fatalf("%s dst=%d node=%d: edge %d, reference has no link", name, dst, id, ei)
		case link != nil && (ei < 0 || f.EdgeFrom[ei] != link.from ||
			uint32(ei) < f.EdgeStart[link.to] || uint32(ei) >= f.EdgeStart[link.to+1]):
			t.Fatalf("%s dst=%d node=%d: edge %d is not the reference's link %d->%d", name, dst, id, ei, link.from, link.to)
		}
	}
}

// sameTreesAsReference builds every tree that answers a target of w on
// the production engine and on the reference and compares them. The
// production build runs on a scratch the test holds, so the labels it left
// behind can be read before anything reuses them.
func sameTreesAsReference(t *testing.T, name string, w *world, opts Options) {
	t.Helper()
	e := New(w.a, opts)
	r := newRefEngine(w.a, opts)
	sc := newRunScratch(e.numNodes())
	for _, k := range w.treeKeys() {
		dstCl, origin := splitTreeKey(k)
		sameTrees(t, name, dstCl, r.run(dstCl, origin), e, e.fullTree(sc, k), sc.labels)
	}
}

// TestResumedTreeMatchesFull extends trees one random ask at a time — a
// few nodes the reference reaches, now and then one it does not, or a
// warmer's slice of so many settles with a reader waiting — on one of two
// scratches picked at random, now and then left dirty by another tree's
// search first, so every step resumes from nothing but the tree. After
// every step the tree equals the reference on every node it has settled,
// each with the label of the extension that settled it; once done,
// everywhere. A tree's first ask stops once its nodes are settled, a later
// one runs to the end, and a slice stops after exactly its count. Every option variant, GRAPH's three
// phases among them, on three worlds.
func TestResumedTreeMatchesFull(t *testing.T) {
	resumes := 0
	for _, seed := range []int64{61, 62, 63} {
		w := buildWorld(t, seed)
		rng := rand.New(rand.NewSource(seed))
		for name, opts := range allOptionVariants() {
			e, r := New(w.a, opts), newRefEngine(w.a, opts)
			n := e.numNodes()
			scs := [2]*runScratch{newRunScratch(n), newRunScratch(n)}
			for _, k := range w.treeKeys() {
				dst, origin := splitTreeKey(k)
				ref := r.run(dst, origin)
				tr, lab := e.newTree(k), make([]label, n)
				for step := 0; !tr.done.Load(); step++ {
					var need []int32
					limit := 0
					if rng.Intn(4) > 0 {
						limit = 1 + rng.Intn(n/16+1)
					} else {
						for len(need) < 1+rng.Intn(3) {
							id := int32(rng.Intn(n))
							if ref.cost[id] != infCost || rng.Intn(20) == 0 {
								need = append(need, id)
							}
						}
					}
					sc := scs[rng.Intn(2)]
					if rng.Intn(4) == 0 {
						e.fullTree(sc, w.treeKeys()[rng.Intn(len(w.treeKeys()))])
					}
					before := settledCount(tr)
					tr.waiting.Store(int32(min(limit, 1))) // a reader waits: the slice stops at its end
					e.search(tr, sc, need, limit)
					for id, l := range sc.labels[:n] {
						if l.settled && l.cost != infCost {
							lab[id] = l
						}
					}
					name := fmt.Sprintf("%s/step %d", name, step)
					sameTrees(t, name, dst, ref, e, tr, lab)
					more := settledCount(tr) - before
					if !tr.done.Load() && ((limit > 0 && more != limit) || (limit == 0 && (!tr.ready(need) || before > 0))) {
						t.Fatalf("%s dst=%d: asked %v and %d settles with %d settled, settled %d more", name, dst, need, limit, before, more)
					}
					if step > 0 {
						resumes++
					}
				}
				if tr.frontier != nil {
					t.Fatalf("%s dst=%d: a done tree keeps %d frontier bytes", name, dst, len(tr.frontier))
				}
			}
		}
	}
	if resumes < 1000 {
		t.Fatalf("%d resumes in all, want the trees resumed many times over", resumes)
	}
	t.Logf("%d resumes", resumes)
}

func settledCount(t *tree) int {
	n := 0
	for i := range t.settled {
		n += bits.OnesCount64(t.settled[i].Load())
	}
	return n
}

func samePrediction(t *testing.T, name string, ref, got Prediction) {
	t.Helper()
	if ref.Found != got.Found {
		t.Fatalf("%s: Found=%v, reference %v", name, got.Found, ref.Found)
	}
	if !ref.Found {
		return
	}
	if ref.DstCluster != got.DstCluster {
		t.Fatalf("%s: DstCluster=%d, reference %d", name, got.DstCluster, ref.DstCluster)
	}
	if len(ref.Clusters) != len(got.Clusters) {
		t.Fatalf("%s: %d clusters, reference %d", name, len(got.Clusters), len(ref.Clusters))
	}
	for i := range ref.Clusters {
		if ref.Clusters[i] != got.Clusters[i] {
			t.Fatalf("%s: cluster[%d]=%d, reference %d", name, i, got.Clusters[i], ref.Clusters[i])
		}
	}
	if len(ref.ASPath) != len(got.ASPath) {
		t.Fatalf("%s: AS path length %d, reference %d", name, len(got.ASPath), len(ref.ASPath))
	}
	for i := range ref.ASPath {
		if ref.ASPath[i] != got.ASPath[i] {
			t.Fatalf("%s: ASPath[%d]=%d, reference %d", name, i, got.ASPath[i], ref.ASPath[i])
		}
	}
	if ref.LatencyMS != got.LatencyMS {
		t.Fatalf("%s: latency %v, reference %v", name, got.LatencyMS, ref.LatencyMS)
	}
	if ref.LossRate != got.LossRate {
		t.Fatalf("%s: loss %v, reference %v", name, got.LossRate, ref.LossRate)
	}
}

// TestFlatDijkstraTreeParity compares every prediction tree the flat
// engine builds against the map-backed reference, node by node.
func TestFlatDijkstraTreeParity(t *testing.T) {
	for _, seed := range []int64{61, 62, 63} {
		w := buildWorld(t, seed)
		for name, opts := range allOptionVariants() {
			sameTreesAsReference(t, name, w, opts)
		}
	}
}

// allOptionSets is allOptionVariants plus the three combinations the paper's
// ablation never runs but the engine accepts: preferences and the provider
// check over GRAPH's three-phase frontier, and the export check without the
// FROM_SRC plane.
func allOptionSets() map[string]Options {
	sets := allOptionVariants()
	sets["GRAPH+prefs"] = Options{Preferences: true}
	sets["GRAPH+asym+prefs+providers"] = Options{Asymmetry: true, Preferences: true, Providers: true}
	sets["3tuple+prefs+providers"] = Options{ThreeTuple: true, Preferences: true, Providers: true}
	return sets
}

// TestTieHeavyTreeParity flattens every latency in the world — all inter-AS
// links alike, all intra-AS links alike — so that nearly every label is
// reached at an equal cost more than once: the queue's pop order among ties
// and the equal-cost replacement through Prefers then decide most of the
// tree, and it must still be the reference's tree, node for node, under
// every option set.
func TestTieHeavyTreeParity(t *testing.T) {
	w := buildWorld(t, 66)
	for i := range w.a.Links {
		l := &w.a.Links[i]
		if w.a.ClusterAS[l.From] == w.a.ClusterAS[l.To] {
			l.LatencyMS = 1
		} else {
			l.LatencyMS = 5
		}
	}
	sets := allOptionSets()
	if len(sets) != 8 {
		t.Fatalf("%d option sets, want 8", len(sets))
	}
	for name, opts := range sets {
		sameTreesAsReference(t, name, w, opts)
	}
}

// TestFlatQueryParity compares full bidirectional query answers.
func TestFlatQueryParity(t *testing.T) {
	w := buildWorld(t, 64)
	// Residual corrections on a few destinations so adjustLatency parity
	// is exercised, including a stack that would go negative unclamped.
	for i, p := range w.targets {
		if i%4 == 0 {
			w.a.GlobalAdjustMS[p] = float32(3 - i%9)
			w.a.AdjustMS[p] = float32(i%5 - 2)
		}
	}
	for name, opts := range allOptionVariants() {
		e := New(w.a, opts)
		r := newRefEngine(w.a, opts)
		pairs := 0
		for i, src := range w.targets {
			dst := w.targets[(i+7)%len(w.targets)]
			if src == dst {
				continue
			}
			samePrediction(t, name+"/fwd", r.predictForward(src, dst, true), e.PredictForward(src, dst))

			info := e.Query(src, dst)
			fwd := r.predictForward(src, dst, false)
			rev := r.predictForward(dst, src, false)
			samePrediction(t, name+"/rev", rev, info.Rev)
			// Query applies the destination's correction to the forward
			// leg only; reproduce that composition on the reference.
			adj := float64(r.a.GlobalAdjustMS[dst]) + float64(r.a.AdjustMS[dst])
			if fwd.Found && adj != 0 {
				fwd.LatencyMS += adj
				if fwd.LatencyMS < 0.05 {
					fwd.LatencyMS = 0.05
				}
			}
			samePrediction(t, name+"/qfwd", fwd, info.Fwd)
			if wantFound := fwd.Found && rev.Found; info.Found != wantFound {
				t.Fatalf("%s: Found=%v, reference %v", name, info.Found, wantFound)
			}
			if info.Found {
				if want := fwd.LatencyMS + rev.LatencyMS; info.RTTMS != want {
					t.Fatalf("%s: RTT %v, reference %v", name, info.RTTMS, want)
				}
				want := 1 - (1-fwd.LossRate)*(1-rev.LossRate)
				if math.Abs(info.LossRate-want) > 1e-12 {
					t.Fatalf("%s: loss %v, reference %v", name, info.LossRate, want)
				}
			}
			if pairs++; pairs >= 60 {
				break
			}
		}
	}
}

// TestFlatQueryParityAfterReload pins the serialized serving form: an
// engine over a WriteFlat -> ReadFlat round trip must answer every query
// byte-identically to the engine over the directly compiled Flat, across
// every option variant. This is the codec-loaded path inanod takes with
// -atlas-flat, and it exercises the Eytzinger index the decoder rebuilds
// (the sorted slices are the serialized form; the index is derived) —
// parity here proves the rebuilt index equals the Compile-built one.
func TestFlatQueryParityAfterReload(t *testing.T) {
	w := buildWorld(t, 65)
	for i, p := range w.targets {
		if i%4 == 0 {
			w.a.GlobalAdjustMS[p] = float32(3 - i%9)
			w.a.AdjustMS[p] = float32(i%5 - 2)
		}
	}
	compiled := atlas.Compile(w.a)
	var buf bytes.Buffer
	if err := atlas.WriteFlat(&buf, compiled); err != nil {
		t.Fatal(err)
	}
	reloaded, err := atlas.ReadFlat(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range allOptionVariants() {
		e := NewFromFlat(compiled, opts)
		re := NewFromFlat(reloaded, opts)
		pairs := 0
		for i, src := range w.targets {
			dst := w.targets[(i+7)%len(w.targets)]
			if src == dst {
				continue
			}
			want, got := e.Query(src, dst), re.Query(src, dst)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: reloaded answer differs for %v->%v:\ncompiled %+v\nreloaded %+v",
					name, src, dst, want, got)
			}
			wp, gp := e.PredictForward(src, dst), re.PredictForward(src, dst)
			if !reflect.DeepEqual(wp, gp) {
				t.Fatalf("%s: reloaded forward differs for %v->%v:\ncompiled %+v\nreloaded %+v",
					name, src, dst, wp, gp)
			}
			if pairs++; pairs >= 60 {
				break
			}
		}
	}
}
