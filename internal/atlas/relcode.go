package atlas

import (
	"cmp"
	"slices"

	"inano/internal/netsim"
)

// The three AS-keyed sets — 3-tuples, preferences, providers — name ASes
// that lie on the AS adjacency the relationships section already ships: a
// tuple (a, b, c) is a walk a–b–c, a preference (a: b > c) names two
// neighbours of a, and a provider is a neighbour of its origin. So an atlas
// writes each of those neighbours as its index in its anchor's row of that
// adjacency (asGraph), which is why the relationships section comes first.

// asGraph is the AS adjacency a relationships section defines. Row i stands
// for the i-th AS the relationships name, in ascending order, and holds the
// rows of that AS's neighbours — ascending, for the sorted, ASPairKey-packed
// keys an atlas holds. Holding rows rather than ASes is what lets a tuple's
// c be read against b's row with no search.
type asGraph struct {
	as  []netsim.ASN // row i is as[i]'s
	off []int32      // row i's neighbours are nbr[off[i]:off[i+1]]
	nbr []int32
	// canonical is whether every key names two ASes, the lower first, as
	// netsim.ASPairKey packs them: then no row names an AS twice, or its own.
	canonical bool
}

// newASGraph builds the adjacency of relKeys, each key an edge between its
// high and low halves. Any key list is a graph: a row out of order or with
// an AS twice only means some neighbours cannot be written as an index.
// Numbering the ASes is a radix sort of the keys' ends, and the rows are a
// counting pass, so the build costs no comparison sort and no search.
func newASGraph(relKeys []uint64) *asGraph {
	// End 2i is key i's high half, 2i+1 its low.
	as := make([]netsim.ASN, 2*len(relKeys))
	for i, k := range relKeys {
		as[2*i], as[2*i+1] = netsim.ASN(k>>32), netsim.ASN(k)
	}
	order, rows := radixByAS(as)
	distinct := 0
	for i, e := range order {
		if i == 0 || as[e] != as[order[i-1]] {
			distinct++
		}
	}
	g := &asGraph{as: make([]netsim.ASN, 0, distinct), canonical: true}
	for _, k := range relKeys {
		g.canonical = g.canonical && k>>32 < k&(1<<32-1)
	}
	for _, e := range order {
		if n := len(g.as); n == 0 || g.as[n-1] != as[e] {
			g.as = append(g.as, as[e])
		}
		rows[e] = int32(len(g.as) - 1)
	}
	// off[x] counts row x's entries, sums to where it ends, and ends where
	// it starts: the fill runs backwards, so a row keeps the keys' order.
	g.off = make([]int32, len(g.as)+1)
	for i := 0; i < len(rows); i += 2 {
		if g.off[rows[i]]++; rows[i] != rows[i+1] {
			g.off[rows[i+1]]++
		}
	}
	for i := range g.as {
		g.off[i+1] += g.off[i]
	}
	g.nbr = order[:g.off[len(g.as)]] // order is spent, and no shorter
	for i := len(rows) - 2; i >= 0; i -= 2 {
		x, y := rows[i], rows[i+1]
		g.off[x]--
		g.nbr[g.off[x]] = y
		if x != y {
			g.off[y]--
			g.nbr[g.off[y]] = x
		}
	}
	return g
}

// radixByAS returns the indices of as in the order of their ASes, stably,
// and a free slice of as's length. It sorts a byte at a time from the
// lowest, up to the highest any AS sets, skipping a byte every AS shares.
func radixByAS(as []netsim.ASN) (sorted, free []int32) {
	a, tmp := make([]int32, len(as)), make([]int32, len(as))
	var set netsim.ASN // the bits any AS sets
	for i, x := range as {
		a[i] = int32(i)
		set |= x
	}
	for shift := 0; shift < 32 && set>>shift != 0; shift += 8 {
		var at [256]int
		for _, x := range as {
			at[x>>shift&0xff]++
		}
		if at[as[a[0]]>>shift&0xff] == len(a) {
			continue
		}
		sum := 0
		for d, n := range at {
			at[d], sum = sum, sum+n
		}
		for _, e := range a {
			d := as[e] >> shift & 0xff
			tmp[at[d]] = e
			at[d]++
		}
		a, tmp = tmp, a
	}
	return a, tmp
}

// row returns the neighbours of row i; none for i < 0, an AS off the graph.
func (g *asGraph) row(i int32) []int32 {
	if i < 0 {
		return nil
	}
	return g.nbr[g.off[i]:g.off[i+1]]
}

// relShape is how a set's keys pack: a head AS above hops ASes of bits bits
// each. Each hop is written against a row: the head's, or for the second
// hop of a chain the first hop's.
type relShape struct {
	hops  int
	bits  uint
	chain bool
}

var (
	tupleShape    = relShape{hops: 2, bits: 21, chain: true} // PackTriple(a, b, c): b of a's row, c of b's
	prefShape     = relShape{hops: 2, bits: 21}              // PackTriple(a, b, c): b and c of a's row
	providerShape = relShape{hops: 1, bits: 32}              // origin<<32 | provider
)

// shift is where part j of a key sits: 0 is the head, 1 and 2 the hops.
func (s relShape) shift(j int) uint { return s.bits * uint(s.hops-j) }

// writeRelSet writes a set of keys of shape s against g as the trie they
// spell, depth first, in the order given (Encode sorts them first): the
// record count, then each head as its difference from the one before,
// followed by its children, until every record is written. A node's
// children are their number less one, then each child, followed by its own
// children if a hop lies below it. A child is its index in its row, as a
// difference from its elder sibling's (from 0 for the first). A child that
// is no index at or past that one — off the graph, or off a row that is
// out of order — is an escape: the difference that lands on the row's
// length, then the AS itself. An escaped hop has no row, so a chain's
// second hop under it escapes too. readRelSet reads it back.
func writeRelSet(w *sectionWriter, g *asGraph, keys []uint64, s relShape) {
	// run returns the end of the node at depth j that starts at key i: the
	// keys from i on that share parts 0..j, or key i alone at a leaf.
	run := func(i, j int) int {
		e := i + 1
		for j < s.hops && e < len(keys) && keys[e]>>s.shift(j) == keys[i]>>s.shift(j) {
			e++
		}
		return e
	}
	// children writes the children of the node keys[lo:hi], at depth j,
	// against row anchor.
	var children func(lo, hi, j int, anchor int32)
	children = func(lo, hi, j int, anchor int32) {
		n := 0
		for i := lo; i < hi; i = run(i, j) {
			n++
		}
		w.uvarint(uint64(n - 1))
		row, prev := g.row(anchor), 0
		for i := lo; i < hi; i = run(i, j) {
			to := netsim.ASN(keys[i] >> s.shift(j) & (1<<s.bits - 1))
			at, found := slices.BinarySearchFunc(row[prev:], to, func(r int32, as netsim.ASN) int { return cmp.Compare(g.as[r], as) })
			next := int32(-1) // the child's own row
			if found {
				w.uvarint(uint64(at))
				prev += at
				next = row[prev]
			} else {
				w.uvarint(uint64(len(row) - prev))
				w.uvarint(uint64(to))
			}
			switch {
			case j == s.hops:
			case s.chain:
				children(i, run(i, j), j+1, next)
			default:
				children(i, run(i, j), j+1, anchor)
			}
		}
	}
	w.uvarint(uint64(len(keys)))
	var head uint64
	for i := 0; i < len(keys); i = run(i, 0) {
		w.uvarint(keys[i]>>s.shift(0) - head)
		head = keys[i] >> s.shift(0)
		r, found := slices.BinarySearch(g.as, netsim.ASN(head))
		if !found {
			r = -1
		}
		children(i, run(i, 0), 1, int32(r))
	}
}

// readRelSet reads what writeRelSet writes, against the graph of the
// relationships section read before it, and returns the keys. The heads,
// and the children of a node, must ascend strictly, so the keys do; there
// must be as many records as the count says; an index past its row's
// length is refused, and so is an AS too wide for its place in the key. A
// record costs no search: a head's row is where a cursor over the
// ascending heads stands, and a chain's second row is its first hop's
// entry in the head's.
func readRelSet(r *wireReader, g *asGraph, s relShape) []uint64 {
	n := r.count()
	keys := make([]uint64, 0, allocHint(n))
	// children reads the children of the node whose parts 0..j-1 prefix
	// holds, against row anchor, which is AS owner's.
	var children func(j int, prefix uint64, anchor int32, owner uint64)
	children = func(j int, prefix uint64, anchor int32, owner uint64) {
		row, prev := g.row(anchor), uint64(0)
		var last uint64 // the elder sibling's AS
		for c := range r.count() + 1 {
			if r.err != nil {
				return
			}
			next, to := int32(-1), uint64(0) // the child's own row, and its AS
			switch u := r.uvarint(); {
			case u < uint64(len(row))-prev:
				prev += u
				next = row[prev]
				to = uint64(g.as[next])
			case u == uint64(len(row))-prev:
				to = r.uvarint()
			default:
				r.fail("neighbour index %d past the degree %d of AS %d", prev+u, len(row), owner)
			}
			switch {
			case to>>s.bits != 0:
				r.fail("AS %d wider than %d bits", to, s.bits)
			case c > 0 && to <= last:
				r.fail("AS %d after %d: keys must ascend strictly", to, last)
			}
			last = to
			switch k := prefix | to<<s.shift(j); {
			case j == s.hops:
				keys = append(keys, k)
			case s.chain:
				children(j+1, k, next, to)
			default:
				children(j+1, k, anchor, owner)
			}
		}
	}
	var head uint64
	at := 0 // the first row whose AS is not below head
	for uint64(len(keys)) < n && r.err == nil {
		h := head + r.uvarint()
		switch {
		case len(keys) > 0 && h <= head:
			r.fail("head AS %d after %d: keys must ascend strictly", h, head)
		case h>>(64-s.shift(0)) != 0:
			r.fail("head AS %d wider than %d bits", h, 64-s.shift(0))
		}
		head = h
		for at < len(g.as) && uint64(g.as[at]) < head {
			at++
		}
		row := int32(-1)
		if at < len(g.as) && uint64(g.as[at]) == head {
			row = int32(at)
		}
		children(1, head<<s.shift(0), row, head)
	}
	if uint64(len(keys)) != n {
		r.fail("%d records where the count says %d", len(keys), n)
	}
	if r.err != nil {
		return nil
	}
	return keys
}

// A link's far end is, all but always, a cluster of its near end's AS or of
// one of that AS's relationship neighbours. So an atlas writes it as a slot,
// which names one of those ASes — slot 0 the near end's own, slot 1+i the
// i-th entry of its row — and a rank, the far end's place among that AS's
// clusters by ID.

// clusterGroups lists each AS's clusters by ID, a group each, and the slots
// of one near end at a time (at): what a link's far end is written against.
type clusterGroups struct {
	g     *asGraph
	cl    []int32 // every cluster, by AS and by ID within an AS
	off   []int32 // group h, one AS's clusters, is cl[off[h]:off[h+1]]
	group []int32 // each cluster's group
	row   []int32 // each group's row in g, or -1
	ofRow []int32 // each row's group, or -1
	// The near end at set last: its group and the row of its AS.
	own  int32
	nbrs []int32
	// slot[h] is the slot of group h among the near end's where stamp[h]
	// is marks, once slotOf has walked them.
	slot, stamp []int32
	marks       int32
	marked      bool
}

// newClusterGroups groups the clusters of clusterAS by AS over the
// adjacency g. Like newASGraph it is a radix sort and merges, with no
// comparison sort and no search.
func newClusterGroups(clusterAS []netsim.ASN, g *asGraph) *clusterGroups {
	cg := &clusterGroups{g: g, ofRow: make([]int32, len(g.as))}
	cg.cl, cg.group = radixByAS(clusterAS)
	groups := 0
	for i, c := range cg.cl {
		if i == 0 || clusterAS[c] != clusterAS[cg.cl[i-1]] {
			groups++
		}
	}
	cg.off, cg.row = make([]int32, 0, groups+1), make([]int32, 0, groups)
	for r := range cg.ofRow {
		cg.ofRow[r] = -1
	}
	r := 0 // the first row whose AS is not below the group's
	for i, c := range cg.cl {
		if as := clusterAS[c]; i == 0 || as != clusterAS[cg.cl[i-1]] {
			for r < len(g.as) && g.as[r] < as {
				r++
			}
			row := int32(-1)
			if r < len(g.as) && g.as[r] == as {
				row, cg.ofRow[r] = int32(r), int32(len(cg.off))
			}
			cg.off, cg.row = append(cg.off, int32(i)), append(cg.row, row)
		}
		cg.group[c] = int32(len(cg.off) - 1)
	}
	cg.off = append(cg.off, int32(len(cg.cl)))
	return cg
}

// at sets near end c, a cluster, and returns its number of slots: one for
// its own AS and one for each entry of that AS's row.
func (cg *clusterGroups) at(c int32) int {
	cg.own, cg.nbrs, cg.marked = cg.group[c], cg.g.row(cg.row[cg.group[c]]), false
	return len(cg.nbrs) + 1
}

// groupAt returns the group of slot j of the near end at set, or -1 for an
// AS with no cluster.
func (cg *clusterGroups) groupAt(j int) int32 {
	if j == 0 {
		return cg.own
	}
	return cg.ofRow[cg.nbrs[j-1]]
}

// repeats reports whether slot j of the near end at set names the group
// of an earlier slot, which only a graph that is not canonical allows.
func (cg *clusterGroups) repeats(j int) bool {
	return !cg.g.canonical && cg.slotOf(cg.groupAt(j)) != j
}

// slotOf returns the first slot of group h among the near end at set, or
// -1 if h is none of its candidates. Its first call for a near end walks
// the near end's slots once.
func (cg *clusterGroups) slotOf(h int32) int {
	if !cg.marked {
		if cg.slot == nil {
			cg.slot, cg.stamp = make([]int32, len(cg.row)), make([]int32, len(cg.row))
		}
		cg.marks, cg.marked = cg.marks+1, true
		for j := len(cg.nbrs); j >= 0; j-- { // backwards, so the first slot stays
			if h := cg.groupAt(j); h >= 0 {
				cg.stamp[h], cg.slot[h] = cg.marks, int32(j)
			}
		}
	}
	if cg.stamp[h] != cg.marks {
		return -1
	}
	return int(cg.slot[h])
}
