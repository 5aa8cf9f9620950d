package core

import (
	"encoding/binary"
	"math"
	"math/bits"
	"runtime"
	"sync/atomic"

	"inano/internal/atlas"
	"inano/internal/netsim"
)

// Cost metric (§4.2.1-§4.2.2). Selection cost is the strictly ordered pair
// [accounted AS hops to the destination, intra-AS cost to exit the current
// AS], packed into one word so the heap compares a single integer:
//
//	packed = H<<44 | E       E in 0.01 ms units, saturated
//
// A third, uncompared component P counts consecutive late-exit crossings
// ("AS hops not yet accounted for"); a normal AS crossing folds P into H
// and resets E, per the paper's ⊕ operator.
const (
	costHShift = 44
	costEMask  = (1 << costHShift) - 1
	costHMax   = 1<<(64-costHShift) - 1
	infCost    = math.MaxUint64
)

// packCost saturates both components: an overflowing E must not carry into
// H, and an H past its 20 bits must not shift off the top of the word.
func packCost(h uint32, e uint64) uint64 {
	if h > costHMax {
		h = costHMax
	}
	if e > costEMask {
		e = costEMask
	}
	return uint64(h)<<costHShift | e
}

func costHops(c uint64) uint32 { return uint32(c >> costHShift) }

// latUnits converts link latency to cost units (0.01 ms), saturating at
// the packed-cost E mask. The comparison is done in float64 *before* the
// integer conversion: a pathological latency near float32 max (or a NaN
// smuggled past the decoder) would otherwise hit the undefined
// float-to-uint64 conversion and wrap, corrupting the packed cost's H
// bits. !(v < limit) is deliberate — it catches NaN too.
func latUnits(ms float32) uint64 {
	if ms <= 0 {
		return 0
	}
	v := float64(ms)*100 + 0.5
	if !(v < float64(costEMask)) {
		return costEMask
	}
	return uint64(v)
}

// tree is one backtracking search from a destination, run as far as readers
// asked (§4.2): a hop word a node, final once its settled bit is set, and
// while suspended the labels a resume reads again (frontier), no scratch.
type tree struct {
	key uint64 // treeKey: the destination cluster and its prefix's origin AS
	// hop is noRoute at a node the search has not reached, hopDest at the
	// destination, else a step toward it with its kind in the low two bits.
	// A link is ei<<2 | ud: the flat-atlas edge index of the link taken, from
	// which the walk reads latency and loss, and the up/down state of the
	// node it arrives at — the cluster is Engine.edgeTo[ei], the plane stays.
	// hopTurn and hopToDst are the synthetic cross edges inside one cluster.
	hop      []int32
	settled  []atomic.Uint64 // one bit a node, stored after the hop words on its path
	kept     atomic.Int32    // cap(frontier), for CacheStats, which takes no tree's lock
	waiting  atomic.Int32    // extenders blocked on lock: the warmer stops for them
	lock     chan struct{}   // one slot, so a waiter can give up on its context; guards the rest but popular
	count    int             // nodes settled so far
	done     atomic.Bool     // the queue ran dry: every reachable node is settled (read without lock)
	phase    uint8           // the GRAPH phase the search is in, from 1
	popular  bool            // on the list Engine.Warm is warming, set before t is published: searched whole
	frontier []byte          // what a resume reads again (see suspend); nil once done
	panicked any             // what an extension panicked with: every waiter re-panics
}

const (
	noRoute  = -2 // a node the search has not reached
	hopDest  = -1
	hopTurn  = 2 // up_c -> down_c
	hopToDst = 3 // FROM_SRC_c -> TO_DST_c

	// maxEdges bounds the link table so a link's hop word stays positive.
	maxEdges      = 1 << 29
	frontierLabel = 13 // bytes a kept label takes: cost, next AS, pending count
)

// has reports whether node id is settled: its path is in the tree for good.
func (t *tree) has(id int32) bool { return t.settled[id>>6].Load()&(1<<(id&63)) != 0 }

// ready reports whether need (all of it when empty) is settled or t done.
func (t *tree) ready(need []int32) bool {
	for _, id := range need {
		if !t.has(id) {
			return t.done.Load()
		}
	}
	return len(need) > 0 || t.done.Load()
}

// label is one node's build-time state: its best cost so far, the pending
// late-exit count and the next AS on the selected path (for 3-tuple checks
// and preference comparisons), and whether its cost is final.
type label struct {
	cost    uint64
	nextAS  netsim.ASN
	pend    uint8
	settled bool
}

// queued is one (cost, node) entry of the build's priority queue, chained
// to the next entry of its bucket.
type queued struct {
	cost uint64
	node int32
	next int32 // index in costQueue.items, -1 at the end of the bucket
}

// costQueue is the build's priority queue: it pops (cost, node) pairs in
// ascending order, cost first, node id second — exactly the order of a
// binary heap over the pair. Preconditions: between two resets a pushed
// cost is never below the last popped cost (Dijkstra over non-negative
// edges; relaxCost keeps the packed cost from wrapping), and a pair is
// pushed once (a node is re-queued only at a lower cost).
//
// The packed cost resets its low 44 bits at every AS crossing, so most of
// the queue at any moment — a hundred entries on average — sits at exactly
// the cost being popped. Those need no cost and no compares: ties is a
// bitmap of node ids. Entries above last wait in radix bucket
// bits.Len64(cost^last)-1, each bucket keeping its least cost as entries
// link in; when ties runs dry the lowest bucket's least cost becomes last
// and its entries fall into ties or strictly lower buckets.
type costQueue struct {
	last     uint64
	ties     nodeSet    // the nodes queued at cost == last
	nonEmpty uint64     // bit b set when bucket b holds entries
	head     [64]int32  // first entry of bucket b; valid while bit b is set
	least    [64]uint64 // the least cost in bucket b; valid while bit b is set
	items    []queued   // every entry pushed above last since the reset
}

// reset empties the queue and rewinds last to zero: a new build, or a new
// GRAPH phase, whose re-relaxations start below the last phase's last pop.
func (q *costQueue) reset() {
	for !q.ties.empty() {
		q.ties.popMin()
	}
	q.nonEmpty, q.last, q.items = 0, 0, q.items[:0]
}

func (q *costQueue) push(cost uint64, node int32) {
	if cost == q.last {
		q.ties.add(node)
		return
	}
	q.items = append(q.items, queued{cost: cost, node: node})
	q.link(int32(len(q.items) - 1))
}

// link puts items[i], whose cost is above last, at the head of its bucket.
func (q *costQueue) link(i int32) {
	cost := q.items[i].cost
	b := bits.Len64(cost^q.last) - 1
	q.items[i].next = -1
	if q.nonEmpty&(1<<b) != 0 {
		q.items[i].next, cost = q.head[b], min(cost, q.least[b])
	}
	q.head[b], q.least[b] = i, cost
	q.nonEmpty |= 1 << b
}

// pop removes and returns the least (cost, node) entry; ok is false when
// the queue is empty.
func (q *costQueue) pop() (cost uint64, node int32, ok bool) {
	if q.ties.empty() {
		if q.nonEmpty == 0 {
			return 0, 0, false
		}
		// The lowest bucket holds the least cost; it becomes last. Every
		// entry of the bucket agrees with it above bit b, so each moves to
		// ties or to a strictly lower bucket.
		b := bits.TrailingZeros64(q.nonEmpty)
		q.nonEmpty &^= 1 << b
		q.last = q.least[b]
		for i := q.head[b]; i >= 0; {
			next := q.items[i].next
			if q.items[i].cost == q.last {
				q.ties.add(q.items[i].node)
			} else {
				q.link(i)
			}
			i = next
		}
	}
	return q.last, q.ties.popMin(), true
}

// nodeSet is a set of node ids that yields its minimum in a fixed number
// of steps: levels[0] has one bit a node, levels[k+1] one bit a word of
// levels[k] (set when that word is non-zero), and the top level is a single
// word. Adding an id that is already present changes nothing.
type nodeSet struct {
	levels [][]uint64
}

func newNodeSet(n int) nodeSet {
	var s nodeSet
	for {
		n = (n + 63) / 64
		s.levels = append(s.levels, make([]uint64, max(n, 1)))
		if n <= 1 {
			return s
		}
	}
}

func (s *nodeSet) empty() bool { return s.levels[len(s.levels)-1][0] == 0 }

func (s *nodeSet) add(id int32) {
	for _, l := range s.levels {
		w := id >> 6
		was := l[w]
		l[w] = was | 1<<(id&63)
		if was != 0 {
			return // the levels above already know this word is occupied
		}
		id = w
	}
}

// popMin removes and returns the smallest id; the set must not be empty.
func (s *nodeSet) popMin() int32 {
	id := 0
	for k := len(s.levels) - 1; k >= 0; k-- {
		id = id<<6 | bits.TrailingZeros64(s.levels[k][id])
	}
	i := id
	for _, l := range s.levels {
		l[i>>6] &^= 1 << (i & 63)
		if l[i>>6] != 0 {
			break
		}
		i >>= 6
	}
	return int32(id)
}

// runScratch is what a search uses besides the tree: labels, the settled
// bits before they are published, the nodes with a label, and the queue.
// Pooled on the engine (Engine.scratch) and refilled, never reallocated.
type runScratch struct {
	labels         []label
	marks, reached []uint64
	q              costQueue
}

func newRunScratch(n int) *runScratch {
	return &runScratch{labels: make([]label, n), marks: make([]uint64, (n+63)/64), reached: make([]uint64, (n+63)/64), q: costQueue{ties: newNodeSet(n), items: make([]queued, 0, n)}}
}

// newTree and extend make *Engine the cache's treeBuilder.
func (e *Engine) newTree(k uint64) *tree {
	n := e.numNodes()
	t := &tree{key: k, hop: make([]int32, n), settled: make([]atomic.Uint64, (n+63)/64), lock: make(chan struct{}, 1), phase: 1}
	for i := range t.hop {
		t.hop[i] = noRoute
	}
	return t
}

func (e *Engine) extend(t *tree, need []int32, slice int) {
	sc := e.scratch.Get().(*runScratch)
	e.search(t, sc, need, slice)
	e.scratch.Put(sc)
}

// search extends t's Dijkstra on sc, under t's lock, until need is settled
// or the queue runs dry. Only a first ask of a tree off the warm list stops
// short: one asked again is popular, and pieces cost more than a whole. The
// warmer's slice > 0: it yields every slice settles, stops for a waiter.
func (e *Engine) search(t *tree, sc *runScratch, need []int32, slice int) {
	lab, marks, q := sc.labels[:len(t.hop)], sc.marks[:len(t.settled)], &sc.q
	e.resume(t, sc)
	maxPhase := uint8(1)
	if !e.opts.ThreeTuple {
		maxPhase = 3 // GRAPH's customer -> peer -> provider frontier
	}
	done, settles, asked, phase := false, 0, 0, t.phase // need[:asked] is settled
	// twin is the leaf twin the last relaxation labelled, which settles next.
	twin := int32(-1)
	for {
		node, relax := twin, twin < 0
		if relax {
			cost, n, ok := q.pop()
			if !ok {
				if done = phase == maxPhase; done {
					break
				}
				// Later phases may only extend from already-settled nodes
				// (their costs are final: better-preferred classes win
				// regardless of length).
				phase++
				q.reset()
				for id := range lab {
					if lab[id].settled {
						e.relaxFrom(t, sc, int32(id), int(phase))
					}
				}
				continue
			}
			if lab[n].settled || cost != lab[n].cost {
				continue // stale queue entry
			}
			node = n
		}
		lab[node].settled = true
		marks[node>>6] |= 1 << (node & 63)
		if relax {
			twin = e.relaxFrom(t, sc, node, int(phase))
		} else {
			twin = -1 // a leaf twin relaxes nothing
		}
		for asked < len(need) && lab[need[asked]].settled {
			asked++
		}
		if settles++; asked == len(need) && asked > 0 && t.count == 0 && !t.popular {
			break // t.count is the count before this search
		}
		if slice > 0 && settles%slice == 0 {
			runtime.Gosched() // with no processor to spare, a reader gets to ask for t
			if t.waiting.Load() > 0 {
				break
			}
		}
	}
	t.count, t.phase = t.count+settles, phase
	for w, m := range marks {
		t.settled[w].Store(m)
	}
	if done {
		t.frontier = nil
	} else {
		e.suspend(t, sc)
	}
	t.done.Store(done)
}

// suspend keeps in t.frontier's buffer a bitset of the nodes whose labels a
// resume reads — reached unsettled ones, and under GRAPH, whose phase change
// relaxes settled ones again, those too — then the labels in node order.
func (e *Engine) suspend(t *tree, sc *runScratch) {
	keep, n := sc.reached[:len(t.settled)], 0
	for w := range keep {
		if e.opts.ThreeTuple {
			keep[w] &^= sc.marks[w]
		}
		n += bits.OnesCount64(keep[w])
	}
	fr := append(t.frontier[:0], make([]byte, 8*len(keep)+n*frontierLabel)...)
	kept := fr[8*len(keep):]
	for w, m := range keep {
		binary.LittleEndian.PutUint64(fr[8*w:], m)
		for ; m != 0; m &= m - 1 {
			l := &sc.labels[w<<6|bits.TrailingZeros64(m)]
			binary.LittleEndian.PutUint64(kept, l.cost)
			binary.LittleEndian.PutUint32(kept[8:], uint32(l.nextAS))
			kept[12] = l.pend
			kept = kept[frontierLabel:]
		}
	}
	t.frontier = fr
	t.kept.Store(int32(cap(fr)))
}

// resume refills sc: settled bits, kept labels, unsettled ones queued (a
// new tree's: its zero label). No other settled label is read again, and
// the queue pops (cost, node) in one total order: exactly as if unstopped.
func (e *Engine) resume(t *tree, sc *runScratch) {
	lab, marks, reached, q := sc.labels[:len(t.hop)], sc.marks[:len(t.settled)], sc.reached[:len(t.settled)], &sc.q
	q.reset()
	for i := range lab {
		lab[i] = label{cost: infCost}
	}
	if t.count == 0 {
		clear(marks)
		clear(reached)
		dst, _ := splitTreeKey(t.key)
		start := e.nodeID(dst, planeToDst, stateDown)
		lab[start].cost, t.hop[start] = 0, hopDest
		reached[start>>6] |= 1 << (start & 63)
		q.push(0, start)
		return
	}
	kept := t.frontier[8*len(marks):]
	for w := range marks {
		marks[w] = t.settled[w].Load()
		for m := marks[w]; m != 0; m &= m - 1 {
			lab[w<<6|bits.TrailingZeros64(m)].settled = true
		}
		keep := binary.LittleEndian.Uint64(t.frontier[8*w:])
		reached[w] = marks[w] | keep
		for ; keep != 0; keep &= keep - 1 {
			id := w<<6 | bits.TrailingZeros64(keep)
			l := &lab[id]
			l.cost, l.nextAS, l.pend = binary.LittleEndian.Uint64(kept), netsim.ASN(binary.LittleEndian.Uint32(kept[8:])), kept[12]
			kept = kept[frontierLabel:]
			if !l.settled {
				q.push(l.cost, int32(id))
			}
		}
	}
}

// relaxFrom relaxes all backtracking edges out of node wid (that is, atlas
// edges arriving at wid's cluster, plus the synthetic cross edges), gated to
// the given preference phase, and returns the leaf twin it labelled, or -1.
// The edge scan walks wid's plane's arc table (Engine.arcs), which holds
// only the edges usable there, each a 16-byte record with its latency in
// cost units. Every arc of the bucket arrives in one AS, so its AS, and
// whether the export check can apply, are read once for the node. An arc's
// tests run cheapest first: the relationship and phase under GRAPH, the
// settled bit, the cost compare, and only for an arc that would change a
// label its source AS and the set probes of the export, provider and
// preference checks. All are pure, so the order cannot change the outcome.
func (e *Engine) relaxFrom(t *tree, sc *runScratch, wid int32, phase int) int32 {
	lab := sc.labels
	wc := e.nodeCluster(wid)
	wPlane := e.nodePlane(wid)
	wUD := e.nodeUD(wid)
	wCost := lab[wid].cost
	wPend := lab[wid].pend
	wNextAS := lab[wid].nextAS
	_, originAS := splitTreeKey(t.key)
	f := e.f
	toAS := f.ClusterAS[wc]

	threeTuple := e.opts.ThreeTuple
	// Relationship-agnostic mode: validity comes from the observed export
	// 3-tuples instead of the up/down construction, where they can apply.
	checkTuples := threeTuple && wNextAS != 0 && wNextAS != toAS && e.clusterDeg[wc] > atlas.DegreeThreshold
	checkProviders, prefs := e.opts.Providers && toAS == originAS, e.opts.Preferences
	start := e.arcStart[wPlane]
	arcs := e.arcs[wPlane][start[wc]:start[wc+1]]
	for i := range arcs {
		a := &arcs[i]
		flags := a.flags()
		sameAS := flags&atlas.EdgeSameAS != 0
		vUD := stateUp
		if !threeTuple {
			var edgePhase int
			var ok bool
			vUD, edgePhase, ok = graphTransition(sameAS, a.rel(), wUD)
			if !ok || edgePhase > phase {
				continue
			}
		}
		vid := e.nodeID(a.from, wPlane, vUD)
		v := &lab[vid]
		if v.settled {
			continue
		}
		newCost, newPend := relaxCost(wCost, wPend, sameAS, flags&atlas.EdgeLate != 0, a.lat())
		vNextAS := wNextAS
		if !sameAS {
			vNextAS = toAS
		}
		// An equal-cost candidate can only replace the incumbent through
		// an inferred AS preference between two different next ASes
		// (§4.3.3); anything else that does not lower the cost is done.
		improves := newCost < v.cost
		if !improves && (newCost > v.cost || !prefs || vNextAS == v.nextAS) {
			continue
		}
		fromAS := f.ClusterAS[a.from]
		if checkTuples && !sameAS && fromAS != wNextAS && !e.tupleOK(f, a.ei, fromAS, toAS, wNextAS) {
			continue
		}
		if checkProviders && !sameAS && !f.ProviderCheck(toAS, fromAS) {
			continue // §4.3.4: must enter the origin AS via a provider
		}
		if !improves && !f.Prefers(fromAS, vNextAS, v.nextAS) {
			continue
		}
		v.cost, v.pend, v.nextAS = newCost, newPend, vNextAS
		t.hop[vid] = int32(a.ei)<<2 | int32(wUD)
		sc.reached[vid>>6] |= 1 << (vid & 63)
		if improves {
			sc.q.push(newCost, vid)
		}
	}

	// Synthetic zero-cost cross edges, both phase 1:
	// up_c -> down_c (traffic turns from climbing to descending), and
	// FROM_SRC_c -> TO_DST_c (client-contributed links feed the core).
	if !threeTuple && wUD == stateDown {
		e.relaxZero(t, sc, wid, e.nodeID(wc, wPlane, stateUp), hopTurn, true)
	}
	if e.opts.Asymmetry && wPlane == planeToDst {
		// Nothing else reaches a leaf twin, so this label is its last, and
		// it relaxes nothing: it settles next, without the queue.
		twin := e.nodeID(wc, planeFromSrc, wUD)
		leaf := e.leafTwins != nil && e.leafTwins[wc>>6]&(1<<(wc&63)) != 0
		if e.relaxZero(t, sc, wid, twin, hopToDst, !leaf); leaf {
			return twin
		}
	}
	return -1
}

// relaxZero relaxes a synthetic zero-cost cross edge wid -> vid (same
// cluster, so the hop word is the edge's kind alone), queueing vid if it
// lowered its label and queue is set.
func (e *Engine) relaxZero(t *tree, sc *runScratch, wid, vid, kind int32, queue bool) {
	w, v := sc.labels[wid], &sc.labels[vid]
	if v.settled || w.cost >= v.cost {
		return
	}
	v.cost, v.pend, v.nextAS = w.cost, w.pend, w.nextAS
	t.hop[vid] = kind
	sc.reached[vid>>6] |= 1 << (vid & 63)
	if queue {
		sc.q.push(w.cost, vid)
	}
}

// relaxCost applies the ⊕ operator of §4.2 for an edge of lat cost units
// traversed (in traffic direction) into the node whose cost is (wCost, wPend).
func relaxCost(wCost uint64, wPend uint8, sameAS, late bool, lat uint64) (uint64, uint8) {
	if !sameAS && !late {
		// Normal AS crossing: fold pending hops, reset exit cost. With H
		// saturated the reset alone would lower the cost, which the
		// monotone queue must never see: the cost stays where it is.
		return max(packCost(costHops(wCost)+uint32(wPend)+1, 0), wCost), 0
	}
	if !sameAS && wPend < math.MaxUint8 {
		wPend++ // late exit: treated as an intra-AS edge, one more hop pending
	}
	return wCost&^costEMask | min(wCost&costEMask+lat, costEMask), wPend // H stays, E saturates
}

// graphTransition maps an edge's inferred relationship onto the up/down
// construction of §4.2.3 and the preference phase of §4.2.4. It returns the
// up/down state required at the edge's source node given the state at its
// target, the phase in which the edge becomes usable, and whether the
// transition is legal at all.
func graphTransition(sameAS bool, rel netsim.Rel, wUD int) (vUD, phase int, ok bool) {
	switch {
	case sameAS || rel == netsim.RelSibling:
		return wUD, 1, true
	case rel == netsim.RelProvider: // traffic climbs customer->provider
		if wUD != stateUp {
			return 0, 0, false
		}
		return stateUp, 3, true
	case rel == netsim.RelCustomer: // traffic descends provider->customer
		if wUD != stateDown {
			return 0, 0, false
		}
		return stateDown, 1, true
	default: // peer, or unknown treated as peer (conservative export)
		if wUD != stateDown {
			return 0, 0, false
		}
		return stateUp, 2, true
	}
}

// tupleOK applies the 3-tuple export check of §4.3.2 to extending, over
// inter-AS edge ei from fromAS into toAS, a path whose next AS after toAS
// is wNextAS, once relaxFrom has found that the check applies.
func (e *Engine) tupleOK(f *atlas.Flat, ei uint32, fromAS, toAS, wNextAS netsim.ASN) bool {
	// The edge's run of f.Tuples: 0 until first asked, then 1<<63|lo<<32|hi.
	run := e.tupleRuns[ei].Load()
	if run == 0 {
		lo, hi := f.TupleRun(fromAS, toAS)
		run = 1<<63 | uint64(lo)<<32 | uint64(hi)
		e.tupleRuns[ei].Store(run) // a concurrent build stores the same word
	}
	return f.HasTupleIn(uint32(run>>32)&math.MaxInt32, uint32(run), fromAS, toAS, wNextAS)
}
