// Package netsim builds synthetic Internet topologies: a tiered AS-level
// graph annotated with business relationships, a PoP-level physical map with
// geographic coordinates, routers and numbered interfaces inside each PoP,
// link latencies derived from geography, per-direction link loss rates, and
// an IPv4 prefix/address plan.
//
// The generated world is the ground truth that the measurement simulator
// (internal/trace) observes and that the iNano predictor (internal/core)
// tries to recover. Generation is fully deterministic for a given Config.
package netsim

import "fmt"

// ASN identifies an autonomous system. ASNs are dense: valid ASNs are
// 1..len(Topology.ASes), and Topology.AS(a) indexes by ASN-1.
type ASN uint32

// PoPID indexes Topology.PoPs. A PoP ("point of presence") is the set of
// routers an AS operates in one location; it is the routing-relevant unit of
// the paper's model.
type PoPID int32

// RouterID indexes Topology.Routers.
type RouterID int32

// LinkID indexes Topology.Links.
type LinkID int32

// IP is an IPv4 address as a big-endian 32-bit word.
type IP uint32

// Prefix is a /24 prefix, identified by the upper 24 bits of its addresses
// (that is, Prefix == IP>>8 for every IP it covers).
type Prefix uint32

// PrefixOf returns the /24 prefix containing ip.
func PrefixOf(ip IP) Prefix { return Prefix(ip >> 8) }

// FirstIP returns the lowest address in p.
func (p Prefix) FirstIP() IP { return IP(p) << 8 }

// HostIP returns the conventional probe-target host inside p.
func (p Prefix) HostIP() IP { return IP(p)<<8 + 1 }

// String formats the prefix in dotted-quad/24 notation.
func (p Prefix) String() string {
	return string(append(p.FirstIP().AppendTo(make([]byte, 0, 18)), "/24"...))
}

// String formats the address in dotted-quad notation (IP.AppendTo).
func (ip IP) String() string { return string(ip.AppendTo(make([]byte, 0, 15))) }

// Tier classifies an AS's position in the provider hierarchy.
type Tier int8

const (
	// TierStub is an edge AS that originates customer prefixes and
	// provides no transit.
	TierStub Tier = iota
	// TierTransit is a regional or national transit provider.
	TierTransit
	// TierOne is a default-free backbone AS; tier-1s peer in a clique.
	TierOne
)

func (t Tier) String() string {
	switch t {
	case TierStub:
		return "stub"
	case TierTransit:
		return "transit"
	case TierOne:
		return "tier1"
	default:
		return fmt.Sprintf("Tier(%d)", int8(t))
	}
}

// Rel is a business relationship between two ASes, expressed from the
// perspective of the first AS of the pair: Rel(a,b) answers "what is b to a?".
type Rel int8

const (
	// RelNone means the ASes are not adjacent.
	RelNone Rel = iota
	// RelCustomer: b is a's customer (b pays a).
	RelCustomer
	// RelPeer: a and b exchange traffic settlement-free.
	RelPeer
	// RelProvider: b is a's provider (a pays b).
	RelProvider
	// RelSibling: a and b are under common ownership and share routes
	// freely; sibling pairs are the natural candidates for late-exit
	// routing (§4.2.2 of the paper).
	RelSibling
)

func (r Rel) String() string {
	switch r {
	case RelNone:
		return "none"
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	case RelProvider:
		return "provider"
	case RelSibling:
		return "sibling"
	default:
		return fmt.Sprintf("Rel(%d)", int8(r))
	}
}

// Invert flips the perspective: if Rel(a,b)==r then Rel(b,a)==r.Invert().
func (r Rel) Invert() Rel {
	switch r {
	case RelCustomer:
		return RelProvider
	case RelProvider:
		return RelCustomer
	default:
		return r
	}
}

// Point is a location on the synthetic map. Distances are Euclidean and feed
// directly into link latencies (see Config.MSPerUnit).
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return sqrt(dx*dx + dy*dy)
}

// AS is one autonomous system.
type AS struct {
	ASN      ASN
	Tier     Tier
	Region   int // index of the home region (city cluster) for non-tier-1s
	PoPs     []PoPID
	Prefixes []Prefix // prefixes this AS originates (infrastructure + edge)
}

// PoP is a point of presence: the routers of one AS in one city.
type PoP struct {
	ID      PoPID
	AS      ASN
	City    int // index into Topology.Cities
	Loc     Point
	Routers []RouterID
}

// Router is one device inside a PoP. Each router owns several numbered
// interfaces; traceroutes reveal interface addresses, and alias resolution
// (internal/cluster) must re-group them.
type Router struct {
	ID     RouterID
	PoP    PoPID
	Ifaces []IP
}

// LinkKind distinguishes physical link classes.
type LinkKind int8

const (
	// LinkIntra connects two PoPs of the same AS.
	LinkIntra LinkKind = iota
	// LinkInter connects PoPs of adjacent ASes.
	LinkInter
)

// Link is an undirected physical link between two PoPs. Loss is modeled per
// direction.
type Link struct {
	ID        LinkID
	A, B      PoPID
	Kind      LinkKind
	LatencyMS float64 // one-way propagation + forwarding latency
	LossAB    float64 // loss probability in the A->B direction
	LossBA    float64 // loss probability in the B->A direction
}

// Adj is one directed adjacency in the per-PoP adjacency lists.
type Adj struct {
	Link LinkID
	To   PoPID
}

// ASPairKey packs an unordered AS pair for map keys; a need not be < b.
func ASPairKey(a, b ASN) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// DirASPairKey packs an ordered AS pair.
func DirASPairKey(a, b ASN) uint64 { return uint64(a)<<32 | uint64(b) }

// Topology is a complete generated world.
type Topology struct {
	Cfg     Config
	Cities  []Point
	ASes    []AS
	PoPs    []PoP
	Routers []Router
	Links   []Link
	// AdjPoP[p] lists the directed adjacencies of PoP p over non-access
	// links.
	AdjPoP [][]Adj
	// Rels maps ASPairKey(a,b) to Rel(min(a,b), max(a,b)).
	Rels map[uint64]Rel
	// ASAdj[asn-1] lists the neighbor ASes of each AS.
	ASAdj [][]ASN
	// LateExit holds ASPairKeys of pairs that run late-exit (cold potato)
	// routing between themselves.
	LateExit map[uint64]bool
	// NoSelfExport holds DirASPairKey(a,b) pairs where b provides transit
	// visible from a, but never announces b's own prefixes to a
	// (the traffic-engineering case of §4.3.4).
	NoSelfExport map[uint64]bool
	// EdgePrefixes are prefixes that host probe destinations (stub and
	// transit customer prefixes), i.e. the "Internet's edge".
	EdgePrefixes []Prefix
	// PrefixOrigin maps every allocated prefix to its origin AS.
	PrefixOrigin map[Prefix]ASN
	// PrefixHome maps every allocated prefix to the PoP that homes it.
	PrefixHome map[Prefix]PoPID
	// PrefixAccessMS is the last-mile one-way latency from the homing PoP
	// to hosts in an edge prefix; PrefixAccessLoss the last-mile loss rate
	// (applied in both directions).
	PrefixAccessMS   map[Prefix]float64
	PrefixAccessLoss map[Prefix]float64
	// IfaceRouter maps every interface address to its router.
	IfaceRouter map[IP]RouterID
	// interAt[DirASPairKey(a,b)] lists links joining a to b.
	interAt map[uint64][]LinkID
}

// AS returns the AS record for asn. It panics on an invalid ASN, which is
// always a programming error given dense allocation.
func (t *Topology) AS(asn ASN) *AS {
	return &t.ASes[asn-1]
}

// RelOf returns the relationship of b from a's perspective.
func (t *Topology) RelOf(a, b ASN) Rel {
	r, ok := t.Rels[ASPairKey(a, b)]
	if !ok {
		return RelNone
	}
	if a <= b {
		return r
	}
	return r.Invert()
}

// InterLinks returns the physical links joining ASes a and b.
func (t *Topology) InterLinks(a, b ASN) []LinkID {
	return t.interAt[ASPairKey(a, b)]
}

// PoPAS returns the AS owning PoP p.
func (t *Topology) PoPAS(p PoPID) ASN { return t.PoPs[p].AS }

// RouterPoP returns the PoP containing the router that owns ip, or -1 if ip
// is not an infrastructure interface.
func (t *Topology) RouterPoP(ip IP) PoPID {
	r, ok := t.IfaceRouter[ip]
	if !ok {
		return -1
	}
	return t.Routers[r].PoP
}

// OtherEnd returns the far end of link l as seen from PoP `from`.
func (t *Topology) OtherEnd(l LinkID, from PoPID) PoPID {
	lk := &t.Links[l]
	if lk.A == from {
		return lk.B
	}
	return lk.A
}

// Stats summarizes a generated world for logging.
type Stats struct {
	ASes, PoPs, Routers, Ifaces int
	IntraLinks, InterLinks      int
	EdgePrefixes                int
	C2P, P2P, Siblings          int
}

// Stats computes summary counts.
func (t *Topology) Stats() Stats {
	var s Stats
	s.ASes = len(t.ASes)
	s.PoPs = len(t.PoPs)
	s.Routers = len(t.Routers)
	s.Ifaces = len(t.IfaceRouter)
	for _, l := range t.Links {
		switch l.Kind {
		case LinkIntra:
			s.IntraLinks++
		case LinkInter:
			s.InterLinks++
		}
	}
	s.EdgePrefixes = len(t.EdgePrefixes)
	for _, r := range t.Rels {
		switch r {
		case RelCustomer, RelProvider:
			s.C2P++
		case RelPeer:
			s.P2P++
		case RelSibling:
			s.Siblings++
		}
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("ASes=%d PoPs=%d routers=%d ifaces=%d intra=%d inter=%d edgePrefixes=%d c2p=%d p2p=%d sib=%d",
		s.ASes, s.PoPs, s.Routers, s.Ifaces, s.IntraLinks, s.InterLinks, s.EdgePrefixes, s.C2P, s.P2P, s.Siblings)
}
