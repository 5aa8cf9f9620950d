// Package atlas defines iNano's compact link-level Internet atlas — the
// artifact that replaces iPlane's multi-gigabyte path atlas — together with
// its builder, a compact binary codec, and day-over-day deltas.
//
// The atlas carries the eight datasets of the paper's Table 2:
//
//	inter-cluster links with latencies   (directed, plane-tagged)
//	link loss rates                      (sparse: lossy links only)
//	prefix -> cluster                    (attachment cluster per prefix)
//	prefix -> AS                         (BGP origin table)
//	AS degrees                           (observed AS-graph degree)
//	AS three-tuples                      (observed export triples, §4.3.2)
//	AS preferences                       ((a: b>c) tuples, §4.3.3)
//	provider mappings                    (providers per origin AS, §4.3.4)
//
// plus two small auxiliary datasets the prediction engine needs: inferred
// AS relationships (for the GRAPH baseline's valley-free construction) and
// inferred late-exit AS pairs.
package atlas

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"inano/internal/cluster"
	"inano/internal/netsim"
)

// Plane flags record which atlas plane(s) observed a directed link
// (§4.3.1): TO_DST links come from vantage-point traceroutes, FROM_SRC
// links from end-host-contributed traceroutes.
const (
	PlaneToDst   uint8 = 1 << 0
	PlaneFromSrc uint8 = 1 << 1

	// PlaneMask is the set of defined plane bits; decoders reject links
	// carrying bits outside it.
	PlaneMask = PlaneToDst | PlaneFromSrc
)

// Link is one directed inter-cluster (or intra-AS cluster-to-cluster) link.
type Link struct {
	// From and To are the link's endpoint clusters, in traversal order.
	From, To cluster.ClusterID
	// LatencyMS is the annotated one-way latency estimate.
	LatencyMS float32
	// Planes records which measurement planes observed the link
	// (PlaneToDst, PlaneFromSrc, or both).
	Planes uint8
}

// LinkKey packs a directed cluster pair for indexing.
func LinkKey(from, to cluster.ClusterID) uint64 {
	return uint64(uint32(from))<<32 | uint64(uint32(to))
}

// DegreeThreshold is the AS degree at or below which the 3-tuple export
// check is not sound (§4.3.2): the builder records a tuple, and the engine
// enforces one, only when the middle AS's degree is above it.
const DegreeThreshold = 5

// MaxASN is the largest ASN representable in packed 3-tuples (21 bits per
// component). Dense synthetic ASNs are far below this.
const MaxASN = 1<<21 - 1

// PackTriple packs three ASNs into one word for the 3-tuple and preference
// sets. It panics if an ASN exceeds MaxASN, which would corrupt the set.
func PackTriple(a, b, c netsim.ASN) uint64 {
	if a > MaxASN || b > MaxASN || c > MaxASN {
		panic(fmt.Sprintf("atlas: ASN out of packed range: %d %d %d", a, b, c))
	}
	return uint64(a)<<42 | uint64(b)<<21 | uint64(c)
}

// UnpackTriple reverses PackTriple.
func UnpackTriple(k uint64) (a, b, c netsim.ASN) {
	return netsim.ASN(k >> 42), netsim.ASN(k >> 21 & MaxASN), netsim.ASN(k & MaxASN)
}

// Atlas is the complete artifact distributed to clients.
type Atlas struct {
	// Day is the measurement day this atlas describes.
	Day int
	// NumClusters is the cluster-ID space size.
	NumClusters int
	// ClusterAS maps each cluster to its owning AS.
	ClusterAS []netsim.ASN
	// Links is the annotated link set in strictly ascending (From, To)
	// order (linkOrder): no pair appears twice. Every producer keeps it so,
	// and LinkAt and Compile rely on it.
	Links []Link
	// Loss holds loss rates for lossy directed links, keyed by LinkKey.
	Loss map[uint64]float32
	// PrefixCluster maps a prefix to the cluster it attaches to (for
	// destinations: the last infrastructure cluster before the host; for
	// sources: the first-hop cluster).
	PrefixCluster map[netsim.Prefix]cluster.ClusterID
	// IfaceCluster maps infrastructure /24s — the address space traceroute
	// hops answer from — to the cluster owning most of their observed
	// interfaces. It is what lets an atlas consumer place a raw hop IP
	// with nothing but the atlas in hand: the upstream-observation ingest
	// clusterizes uploaded hop lists through it. Kept separate from
	// PrefixCluster so end-host attachment semantics (and the client-side
	// merge that keys on them) are unaffected.
	IfaceCluster map[netsim.Prefix]cluster.ClusterID
	// PrefixAS is the BGP origin table.
	PrefixAS map[netsim.Prefix]netsim.ASN
	// ASDegree is the degree of each AS in the observed AS graph.
	ASDegree map[netsim.ASN]int32
	// Tuples is the observed-export 3-tuple set (commutatively closed),
	// keyed by PackTriple(a,b,c).
	Tuples map[uint64]bool
	// Prefs holds preference tuples: PackTriple(a,b,c) present means
	// "AS a prefers next-hop b over next-hop c at equal path length".
	Prefs map[uint64]bool
	// Providers maps an origin AS to the ASes observed (or advertised)
	// directly upstream of it for its own prefixes.
	Providers map[netsim.ASN][]netsim.ASN
	// Rels is the Gao-inferred relationship map (netsim.ASPairKey keys),
	// used by the GRAPH baseline's valley-free construction.
	Rels map[uint64]netsim.Rel
	// LateExit holds AS pair keys inferred to run late-exit routing.
	LateExit map[uint64]bool

	// AdjustMS holds client-learned signed latency corrections per
	// destination prefix: the converging residual between what this
	// host's own corrective traceroutes measured end-to-end and what the
	// atlas predicted. It captures everything the link-level datasets
	// structurally miss for that destination — access tails, stale link
	// annotations, mispredicted paths — without perturbing destinations
	// the client never measured. The engine adds it to the one-way
	// prediction toward the prefix (so a bidirectional query absorbs it
	// once, on the forward leg). Local-only: never encoded, deltaed, or
	// shipped; it decays across day rolls (see Delta.Apply).
	AdjustMS map[netsim.Prefix]float32

	// GlobalAdjustMS is the shipped counterpart of AdjustMS: signed
	// per-destination-prefix corrections the *build server* folded from
	// clients' uploaded corrective observations (robust median across
	// reporting source clusters — see FoldObservations). Unlike AdjustMS
	// it is real atlas structure: encoded, bounded (±MaxObservationFoldMS,
	// enforced at decode), deltaed day over day, and distributed through
	// the swarm, so a peer that never probed a destination still serves
	// the swarm-wide correction for it. The engine applies it exactly
	// like AdjustMS — once per answer, on the forward leg — and the two
	// stack: the local term converges on whatever residual remains after
	// the global one.
	GlobalAdjustMS map[netsim.Prefix]float32

	// ObservedLinks records the provenance and remaining lifetime of links
	// the build folded from clients' uploaded traceroute hops rather than
	// from its own measurement campaign (see FoldPaths): LinkKey -> rolls
	// of unsupported carry remaining. A freshly agreed path resets its
	// links to ObservedTTLDays; each day roll without renewed reporter
	// agreement decrements (CarryFoldedPaths), and at zero the link drops
	// out of the next build — the structural mirror of CarryCorrections'
	// halve-then-drop. A link the measurement campaign later observes
	// itself graduates out of this table (it no longer needs crowd
	// support to survive).
	ObservedLinks map[uint64]uint8

	// ObservedAttach is the same lifetime bookkeeping for prefix
	// attachment entries learned from uploaded hops: destinations the
	// measurement campaign never probed gain a PrefixCluster entry from
	// the agreed path's last infrastructure cluster, and shed it again a
	// few rolls after reporters stop re-supporting it.
	ObservedAttach map[netsim.Prefix]uint8
}

// New returns an empty atlas with all maps allocated.
func New() *Atlas {
	return &Atlas{
		Loss:           make(map[uint64]float32),
		PrefixCluster:  make(map[netsim.Prefix]cluster.ClusterID),
		IfaceCluster:   make(map[netsim.Prefix]cluster.ClusterID),
		PrefixAS:       make(map[netsim.Prefix]netsim.ASN),
		ASDegree:       make(map[netsim.ASN]int32),
		Tuples:         make(map[uint64]bool),
		Prefs:          make(map[uint64]bool),
		Providers:      make(map[netsim.ASN][]netsim.ASN),
		Rels:           make(map[uint64]netsim.Rel),
		AdjustMS:       make(map[netsim.Prefix]float32),
		GlobalAdjustMS: make(map[netsim.Prefix]float32),
		LateExit:       make(map[uint64]bool),
		ObservedLinks:  make(map[uint64]uint8),
		ObservedAttach: make(map[netsim.Prefix]uint8),
	}
}

// LinkAt returns the index of the directed link from->to in Links, or -1:
// a binary search, Links being in (From, To) order. Safe for concurrent use
// as long as Links is not being mutated.
func (a *Atlas) LinkAt(from, to cluster.ClusterID) int32 {
	if i, ok := a.search(from, to); ok {
		return int32(i)
	}
	return -1
}

// search returns where the link from->to stands in Links, or would be
// inserted to keep Links in order, and whether it is there.
func (a *Atlas) search(from, to cluster.ClusterID) (int, bool) {
	return slices.BinarySearchFunc(a.Links, Link{From: from, To: to}, linkOrder)
}

// linkOrder is the order Links is kept in: by From, then by To.
func linkOrder(x, y Link) int {
	return cmp.Or(cmp.Compare(x.From, y.From), cmp.Compare(x.To, y.To))
}

// LossOf returns the loss rate of a directed link (0 when not recorded).
func (a *Atlas) LossOf(from, to cluster.ClusterID) float64 {
	return float64(a.Loss[LinkKey(from, to)])
}

// HasTuple reports whether the 3-tuple (x,y,z) was observed.
func (a *Atlas) HasTuple(x, y, z netsim.ASN) bool {
	return a.Tuples[PackTriple(x, y, z)]
}

// Prefers reports whether AS a prefers next-hop b over next-hop c.
func (a *Atlas) Prefers(at, b, c netsim.ASN) bool {
	return a.Prefs[PackTriple(at, b, c)]
}

// IsProvider reports whether up is a recorded provider of origin.
func (a *Atlas) IsProvider(origin, up netsim.ASN) bool {
	for _, p := range a.Providers[origin] {
		if p == up {
			return true
		}
	}
	return false
}

// RelOf returns the inferred relationship of b from a's perspective.
func (a *Atlas) RelOf(x, y netsim.ASN) netsim.Rel {
	r, ok := a.Rels[netsim.ASPairKey(x, y)]
	if !ok {
		return netsim.RelNone
	}
	if x <= y {
		return r
	}
	return r.Invert()
}

// Counts summarizes dataset cardinalities (the "No. of entries" column of
// Table 2). Each field counts the entries of the same-named atlas dataset:
// inter-cluster links, loss annotations, prefix-to-cluster and
// prefix-to-origin-AS mappings, AS-graph degrees, observed 3-tuples,
// next-hop preferences, provider records, AS relationships, and
// late-exit AS pairs.
type Counts struct {
	Links, Loss, PrefixCluster, PrefixAS int
	ASDegree, Tuples, Prefs, Providers   int
	Rels, LateExit                       int
}

// Counts returns dataset cardinalities.
func (a *Atlas) Counts() Counts {
	nprov := 0
	for _, ps := range a.Providers {
		nprov += len(ps)
	}
	return Counts{
		Links:         len(a.Links),
		Loss:          len(a.Loss),
		PrefixCluster: len(a.PrefixCluster),
		PrefixAS:      len(a.PrefixAS),
		ASDegree:      len(a.ASDegree),
		Tuples:        len(a.Tuples),
		Prefs:         len(a.Prefs),
		Providers:     nprov,
		Rels:          len(a.Rels),
		LateExit:      len(a.LateExit),
	}
}

// MapOps counts the whole-atlas operations on the map form run by this
// process so far. A serving client's day roll runs none of them; the root
// package's tests hold it to that by reading the counts around a roll.
type MapOps struct{ Clones, Applies, Compiles uint64 }

var mapOps struct{ clones, applies, compiles atomic.Uint64 }

// MapOpCounts returns the process-wide MapOps counters.
func MapOpCounts() MapOps {
	return MapOps{mapOps.clones.Load(), mapOps.applies.Load(), mapOps.compiles.Load()}
}

// Clone deep-copies the atlas (used by delta tests and clients that keep
// yesterday's atlas while applying an update).
func (a *Atlas) Clone() *Atlas {
	mapOps.clones.Add(1)
	b := New()
	b.Day = a.Day
	b.NumClusters = a.NumClusters
	b.ClusterAS = append([]netsim.ASN(nil), a.ClusterAS...)
	b.Links = append([]Link(nil), a.Links...)
	for k, v := range a.Loss {
		b.Loss[k] = v
	}
	for k, v := range a.PrefixCluster {
		b.PrefixCluster[k] = v
	}
	for k, v := range a.IfaceCluster {
		b.IfaceCluster[k] = v
	}
	for k, v := range a.PrefixAS {
		b.PrefixAS[k] = v
	}
	for k, v := range a.ASDegree {
		b.ASDegree[k] = v
	}
	for k := range a.Tuples {
		b.Tuples[k] = true
	}
	for k := range a.Prefs {
		b.Prefs[k] = true
	}
	for k, v := range a.Providers {
		b.Providers[k] = append([]netsim.ASN(nil), v...)
	}
	for k, v := range a.Rels {
		b.Rels[k] = v
	}
	for k := range a.LateExit {
		b.LateExit[k] = true
	}
	for k, v := range a.AdjustMS {
		b.AdjustMS[k] = v
	}
	for k, v := range a.GlobalAdjustMS {
		b.GlobalAdjustMS[k] = v
	}
	for k, v := range a.ObservedLinks {
		b.ObservedLinks[k] = v
	}
	for k, v := range a.ObservedAttach {
		b.ObservedAttach[k] = v
	}
	return b
}
