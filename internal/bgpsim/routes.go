package bgpsim

import (
	"slices"
	"sync"
	"sync/atomic"

	"inano/internal/netsim"
)

// RouteClass is the local-preference class of a selected route.
type RouteClass int8

const (
	// ClassNone means no route (unreachable).
	ClassNone RouteClass = iota
	// ClassOrigin marks the destination AS itself.
	ClassOrigin
	// ClassCustomer routes go through a customer (or sibling) and are the
	// most preferred.
	ClassCustomer
	// ClassPeer routes go through a settlement-free peer.
	ClassPeer
	// ClassProvider routes go through a paid provider and are least
	// preferred.
	ClassProvider
)

// RouteTable holds, for one destination AS, every AS's selected route:
// next-hop AS, AS-hop count, preference class, and the runner-up next hop
// (the second-best equally-valid choice, used for traffic-engineering
// deflections). Slices are indexed by ASN-1.
type RouteTable struct {
	Dst      netsim.ASN
	NextHop  []netsim.ASN // 0 = no route (or origin)
	Hops     []int32      // -1 = no route
	Class    []RouteClass
	RunnerUp []netsim.ASN // 0 = no alternative
}

// Day is the routing view for one simulated day.
type Day struct {
	sim       *Sim
	day       int
	quirkSalt []uint64

	tables []filled[*RouteTable] // by destination ASN-1
	te     fillMap[netsim.Prefix, teOverride]
	// pairs holds every AS adjacency, by ASPairKey; it is filled before the
	// day is shared and only read after.
	pairs          map[uint64]asPair
	tablesComputed atomic.Int64 // computeTable runs: each table is computed once
}

// asPair is what expanding an AS hop across one adjacency reads: the links
// joining the two ASes, whether they hand traffic off late, and the day's
// exit-noise salt.
type asPair struct {
	links []netsim.LinkID
	late  bool
	salt  uint64
}

// filled is a value computed once, by the first caller of get; callers
// that arrive while it runs wait for it instead of computing a second copy.
type filled[V any] struct {
	once sync.Once
	v    V
}

func (f *filled[V]) get(fill func() V) V {
	f.once.Do(func() { f.v = fill() })
	return f.v
}

// fillMap is a filled value per key, for keys too sparse to index a slice.
// The lock covers the slot lookup only, never a fill.
type fillMap[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*filled[V]
}

func (c *fillMap[K, V]) get(k K, fill func() V) V {
	c.mu.Lock()
	f := c.m[k]
	if f == nil {
		if c.m == nil {
			c.m = make(map[K]*filled[V])
		}
		f = new(filled[V])
		c.m[k] = f
	}
	c.mu.Unlock()
	return f.get(fill)
}

type teOverride struct {
	at   netsim.ASN // deflecting AS (0 = no deflection for this prefix)
	next netsim.ASN // forced next hop at that AS
}

// DayNum returns the simulated day this view describes.
func (v *Day) DayNum() int { return v.day }

// Sim returns the owning simulator.
func (v *Day) Sim() *Sim { return v.sim }

// prefRank orders AS a's neighbors: lower is more preferred. The ordering is
// an arbitrary-but-stable function of (a, neighbor, day-salt); it models the
// unobservable local policy that iNano's §4.3.3 preference inference learns
// from path observations.
func (v *Day) prefRank(a, nb netsim.ASN) uint64 {
	return mix(v.quirkSalt[a-1], uint64(nb), 0x17, 0)
}

// Table computes (or returns cached) the route table for destination AS d.
func (v *Day) Table(d netsim.ASN) *RouteTable {
	return v.tables[d-1].get(func() *RouteTable { return v.computeTable(d) })
}

// computeTable runs three-phase policy route selection for destination AS d,
// the standard model of BGP decision making:
//
//	phase 1: customer routes climb provider (and sibling) edges — an AS
//	         hears the routes its customers select;
//	phase 2: peer routes — an AS hears its peers' customer routes, one
//	         peering hop only (valley-free export);
//	phase 3: provider routes descend to customers (and siblings).
//
// Within a class, selection is shortest AS path; ties break by the AS's
// private preference ordering (prefRank). The no-self-export set filters the
// direct edge to d for marked neighbors.
func (v *Day) computeTable(d netsim.ASN) *RouteTable {
	v.tablesComputed.Add(1)
	top := v.sim.Top
	n := len(top.ASes)
	t := &RouteTable{
		Dst:      d,
		NextHop:  make([]netsim.ASN, n),
		Hops:     make([]int32, n),
		Class:    make([]RouteClass, n),
		RunnerUp: make([]netsim.ASN, n),
	}
	for i := range t.Hops {
		t.Hops[i] = -1
	}
	t.Hops[d-1] = 0
	t.Class[d-1] = ClassOrigin

	// round has every AS of from advertise its route to its unsettled
	// neighbors that are relA or relB to it, then settles the ones that heard
	// a route, in class, and returns them. An AS stays unsettled (Hops < 0)
	// while a round's offers are coming in. Neighbors that may not learn d's
	// own prefixes directly from d (no-self-export transit engineering) are
	// passed over.
	round := func(from []netsim.ASN, relA, relB netsim.Rel, class RouteClass) (heard []netsim.ASN) {
		for _, x := range from {
			rels := v.sim.rels[x-1]
			for i, y := range top.ASAdj[x-1] {
				if r := rels[i]; r != relA && r != relB {
					continue
				}
				if t.Hops[y-1] >= 0 || (x == d && top.NoSelfExport[netsim.DirASPairKey(y, d)]) {
					continue
				}
				if t.NextHop[y-1] == 0 {
					heard = append(heard, y)
				}
				v.consider(t, y, x)
			}
		}
		for _, at := range heard {
			t.Hops[at-1] = t.Hops[t.NextHop[at-1]-1] + 1
			t.Class[at-1] = class
		}
		return heard
	}
	// settled lists the ASes with a route so far, bucketed by its hop count.
	settled := func() (byHops [][]netsim.ASN) {
		for i, h := range t.Hops {
			if h >= 0 {
				for int(h) >= len(byHops) {
					byHops = append(byHops, nil)
				}
				byHops[h] = append(byHops[h], netsim.ASN(i+1))
			}
		}
		return byHops
	}

	// Phase 1: customer routes, BFS by hop count (each wave settles hops
	// equal to the wave number, so plain BFS is exact shortest-path).
	for frontier := []netsim.ASN{d}; len(frontier) > 0; {
		frontier = round(frontier, netsim.RelProvider, netsim.RelSibling, ClassCustomer)
	}

	// Phase 2: peer routes — single step from customer-settled ASes.
	round(slices.Concat(settled()...), netsim.RelPeer, netsim.RelPeer, ClassPeer)

	// Phase 3: provider routes descend (only customers and siblings hear
	// an AS's full table). Settled ASes have heterogeneous hop counts, so
	// this is a bucketed Dijkstra: draining buckets in increasing hop order
	// guarantees each AS settles at its true shortest provider-route length.
	buckets := settled()
	for h := 0; h < len(buckets); h++ {
		if heard := round(buckets[h], netsim.RelCustomer, netsim.RelSibling, ClassProvider); len(heard) > 0 {
			if h+1 == len(buckets) {
				buckets = append(buckets, nil)
			}
			buckets[h+1] = append(buckets[h+1], heard...)
		}
	}
	return t
}

// consider offers AS `at` a route through via: t.NextHop[at-1] keeps the
// preferred next hop seen so far, ordering by (hop count of via's route,
// at's private preference), and t.RunnerUp[at-1] the second best, if any.
func (v *Day) consider(t *RouteTable, at, via netsim.ASN) {
	betterThan := func(a, b netsim.ASN) bool {
		ha, hb := t.Hops[a-1], t.Hops[b-1]
		if ha != hb {
			return ha < hb
		}
		return v.prefRank(at, a) < v.prefRank(at, b)
	}
	best, runner := &t.NextHop[at-1], &t.RunnerUp[at-1]
	switch {
	case *best == 0 || betterThan(via, *best):
		*best, *runner = via, *best
	case via != *best && (*runner == 0 || betterThan(via, *runner)):
		*runner = via
	}
}

// teFor returns the traffic-engineering deflection for prefix p, computing
// and caching it on first use. A deflected prefix forces one AS on its
// routing tree to use its runner-up next hop; deflections that would create
// forwarding loops are discarded.
func (v *Day) teFor(p netsim.Prefix) teOverride {
	return v.te.get(p, func() teOverride { return v.computeTE(p) })
}

func (v *Day) computeTE(p netsim.Prefix) teOverride {
	s := v.sim
	// Chain per-day TE re-rolls like quirks.
	last := 0
	for d := 1; d <= v.day; d++ {
		if hashFloat(mix(uint64(s.seed), 0xcc, uint64(p), uint64(d))) < teChurnPerDay {
			last = d
		}
	}
	salt := mix(uint64(s.seed), 0xcd, uint64(p), uint64(last))
	if hashFloat(mix(salt, 1, 0, 0)) >= teFrac {
		return teOverride{}
	}
	origin, ok := s.Top.PrefixOrigin[p]
	if !ok {
		return teOverride{}
	}
	t := v.Table(origin)
	// Gather deflectable ASes: those with a recorded runner-up.
	var deflectable []netsim.ASN
	for i := range t.NextHop {
		if t.RunnerUp[i] != 0 {
			deflectable = append(deflectable, netsim.ASN(i+1))
		}
	}
	if len(deflectable) == 0 {
		return teOverride{}
	}
	at := deflectable[int(mix(salt, 2, 0, 0)%uint64(len(deflectable)))]
	forced := t.RunnerUp[at-1]
	// Reject deflections that loop or dead-end.
	cur, hops := at, 0
	for cur != origin {
		if hops++; hops > 64 {
			return teOverride{}
		}
		nh := t.NextHop[cur-1]
		if cur == at {
			nh = forced
		}
		if nh == 0 {
			return teOverride{}
		}
		cur = nh
	}
	return teOverride{at: at, next: forced}
}

// ASPath returns the ground-truth AS-level path from srcAS to the origin of
// dst, including both endpoints, honoring any traffic-engineering
// deflection for dst. ok is false if srcAS has no route.
func (v *Day) ASPath(srcAS netsim.ASN, dst netsim.Prefix) (path []netsim.ASN, ok bool) {
	origin, exists := v.sim.Top.PrefixOrigin[dst]
	if !exists {
		return nil, false
	}
	if srcAS == origin {
		return []netsim.ASN{origin}, true
	}
	t := v.Table(origin)
	te := v.teFor(dst)
	cur := srcAS
	path = append(make([]netsim.ASN, 0, 8), cur)
	for cur != origin {
		if len(path) > 64 {
			return nil, false
		}
		nh := t.NextHop[cur-1]
		if te.at == cur {
			nh = te.next
		}
		if nh == 0 {
			return nil, false
		}
		cur = nh
		path = append(path, cur)
	}
	return path, true
}
