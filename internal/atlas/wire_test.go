package atlas

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"inano/internal/cluster"
	"inano/internal/netsim"
)

// onGrid snaps a's shipped latencies, loss rates and corrections to the
// wire's quantization, so that a trip through the codec must give them back
// exactly. It returns a.
func onGrid(a *Atlas) *Atlas {
	for i := range a.Links {
		a.Links[i].LatencyMS = unquantLat(quantLat(a.Links[i].LatencyMS))
	}
	for k, v := range a.Loss {
		a.Loss[k] = unquantLoss(quantLoss(v))
	}
	for p, v := range a.GlobalAdjustMS {
		a.GlobalAdjustMS[p] = unquantAdj(quantAdj(v))
	}
	return a
}

// linkTable is an atlas of up to 12 clusters, their links and what is coded
// against the clusters, drawn so that every shape those sections carry turns
// up: one-way links either way round, self links, pairs with equal and with
// different latencies and planes, links at clusters 0 and n-1, clusters
// numbered out of AS order, far ends on and off their candidates; origins
// their cluster implies, others, none, and 0; degrees their row implies,
// others, none, and degrees for ASes with no row.
func linkTable(rng *rand.Rand) *Atlas {
	a := New()
	a.NumClusters = 1 + rng.Intn(12)
	for range a.NumClusters {
		a.ClusterAS = append(a.ClusterAS, netsim.ASN(1+rng.Intn(4)))
	}
	at := map[uint64]int{} // where each link went in a.Links
	for from := range a.NumClusters {
		for to := range a.NumClusters {
			if rng.Intn(3) == 0 {
				continue
			}
			l := Link{From: cluster.ClusterID(from), To: cluster.ClusterID(to), LatencyMS: unquantLat(uint64(rng.Intn(5000))), Planes: uint8(1 + rng.Intn(3))}
			if i, ok := at[LinkKey(l.To, l.From)]; ok && rng.Intn(2) == 0 {
				l.LatencyMS = a.Links[i].LatencyMS // the common case: a pair of one latency
			}
			at[LinkKey(l.From, l.To)] = len(a.Links)
			a.Links = append(a.Links, l)
		}
	}
	for range rng.Intn(6) {
		x, y := netsim.ASN(1+rng.Intn(5)), netsim.ASN(1+rng.Intn(5))
		a.Rels[netsim.ASPairKey(x, y)] = netsim.RelPeer
	}
	for p := range netsim.Prefix(rng.Intn(10)) {
		if rng.Intn(4) != 0 {
			a.PrefixCluster[p] = cluster.ClusterID(rng.Intn(a.NumClusters))
		}
		switch c, ok := a.PrefixCluster[p]; rng.Intn(4) {
		case 0: // no origin
		case 1:
			if ok {
				a.PrefixAS[p] = a.ClusterAS[c]
			}
		default:
			a.PrefixAS[p] = netsim.ASN(rng.Intn(6))
		}
	}
	g := newASGraph(sortedKeys(a.Rels))
	for as := range netsim.ASN(7) {
		switch r, ok := slices.BinarySearch(g.as, as); rng.Intn(3) {
		case 0: // no degree
		case 1:
			if ok {
				a.ASDegree[as] = int32(len(g.row(int32(r))))
			}
		default:
			a.ASDegree[as] = int32(rng.Intn(4))
		}
	}
	return a
}

// relTable is an atlas of nothing but relationships and the three sets
// coded against them, over ASes 1..10 and the widest a 3-tuple packs: most
// entries walk the relationship graph, some leave it, and now and then a
// relationship key is written high end first, so its rows come out of
// order. Every path of the v5 coding turns up: indices, escapes at either
// hop, heads with no row.
func relTable(rng *rand.Rand) *Atlas {
	a := New()
	as := func() netsim.ASN {
		if rng.Intn(20) == 0 {
			return MaxASN
		}
		return netsim.ASN(1 + rng.Intn(10))
	}
	nbrs := map[netsim.ASN][]netsim.ASN{}
	for range rng.Intn(16) {
		x, y := as(), as()
		k := netsim.ASPairKey(x, y)
		if rng.Intn(8) == 0 {
			k = netsim.DirASPairKey(max(x, y), min(x, y))
		}
		a.Rels[k] = netsim.Rel(rng.Intn(3) - 1)
		nbrs[x], nbrs[y] = append(nbrs[x], y), append(nbrs[y], x)
	}
	// next is a neighbour of x, or an AS at random.
	next := func(x netsim.ASN) netsim.ASN {
		if ns := nbrs[x]; len(ns) > 0 && rng.Intn(4) != 0 {
			return ns[rng.Intn(len(ns))]
		}
		return as()
	}
	for range rng.Intn(30) {
		x := as()
		y := next(x)
		a.Tuples[PackTriple(x, y, next(y))] = true
		a.Prefs[PackTriple(x, next(x), next(x))] = true
	}
	providers := map[uint64]bool{}
	for range rng.Intn(12) {
		x := as()
		providers[uint64(x)<<32|uint64(next(x))] = true
	}
	for _, k := range sortedKeys(providers) {
		a.Providers[netsim.ASN(k>>32)] = append(a.Providers[netsim.ASN(k>>32)], netsim.ASN(k))
	}
	return a
}

// sameShipped fails unless got and want agree on every dataset the wire
// carries.
func sameShipped(t testing.TB, what string, got, want *Atlas) {
	t.Helper()
	for _, c := range []struct {
		dataset string
		same    bool
	}{
		{"header", got.Day == want.Day && got.NumClusters == want.NumClusters},
		{"ClusterAS", slices.Equal(got.ClusterAS, want.ClusterAS)},
		{"Links", slices.Equal(got.Links, want.Links)},
		{"Loss", maps.Equal(got.Loss, want.Loss)},
		{"PrefixCluster", maps.Equal(got.PrefixCluster, want.PrefixCluster)},
		{"IfaceCluster", maps.Equal(got.IfaceCluster, want.IfaceCluster)},
		{"PrefixAS", maps.Equal(got.PrefixAS, want.PrefixAS)},
		{"ASDegree", maps.Equal(got.ASDegree, want.ASDegree)},
		{"Tuples", maps.Equal(got.Tuples, want.Tuples)},
		{"Prefs", maps.Equal(got.Prefs, want.Prefs)},
		{"Providers", maps.EqualFunc(got.Providers, want.Providers, slices.Equal)},
		{"Rels", maps.Equal(got.Rels, want.Rels)},
		{"LateExit", maps.Equal(got.LateExit, want.LateExit)},
		{"GlobalAdjustMS", maps.Equal(got.GlobalAdjustMS, want.GlobalAdjustMS)},
		{"ObservedLinks", maps.Equal(got.ObservedLinks, want.ObservedLinks)},
		{"ObservedAttach", maps.Equal(got.ObservedAttach, want.ObservedAttach)},
	} {
		if !c.same {
			t.Fatalf("%s: %s differs", what, c.dataset)
		}
	}
}

// wireBytes returns what an Encode method writes.
func wireBytes(t testing.TB, encode func(io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWireRoundTrip holds both streams to their two promises, on built
// worlds (every dataset, both days) and on synthetic link tables: an atlas
// on the wire's grid comes back from Decode(Encode(a)) equal to a in every
// shipped dataset, and an encoding comes back from Encode(Decode(b))
// unchanged to the byte — every atlas has one encoding. A delta between
// two of them is likewise kept to the byte, and applied as it came off the
// wire it makes what it makes applied as it stands.
func TestWireRoundTrip(t *testing.T) {
	var atlases []*Atlas
	for seed := int64(1); seed <= 3; seed++ {
		for day := range 2 {
			a, _, _ := buildTestAtlas(t, seed, day)
			atlases = append(atlases, onGrid(a))
		}
	}
	atlases = append(atlases, wireFixture(), offGraphFixture())
	rng := rand.New(rand.NewSource(31))
	for range 60 {
		atlases = append(atlases, linkTable(rng), relTable(rng))
	}
	for i, a := range atlases {
		b := wireBytes(t, a.Encode)
		got, err := Decode(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("atlas %d: %v", i, err)
		}
		sameShipped(t, "atlas", got, a)
		if again := wireBytes(t, got.Encode); !bytes.Equal(again, b) {
			t.Fatalf("atlas %d: %d bytes re-encode to %d other bytes", i, len(b), len(again))
		}
		if i == 0 {
			continue
		}
		d := Diff(atlases[i-1], a)
		db := wireBytes(t, d.Encode)
		wire, err := DecodeDelta(bytes.NewReader(db))
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		if again := wireBytes(t, wire.Encode); !bytes.Equal(again, db) {
			t.Fatalf("delta %d: %d bytes re-encode to %d other bytes", i, len(db), len(again))
		}
		want, via := atlases[i-1].Clone(), atlases[i-1].Clone()
		if err := want.Apply(d); err != nil {
			t.Fatal(err)
		}
		if err := via.Apply(wire); err != nil {
			t.Fatal(err)
		}
		sameShipped(t, "delta", via, want)
	}
}

// TestWireRelSetsOffGraph holds the two doors to each other, and to the
// atlas, on 3-tuples, preferences and providers written against the
// relationship graph: on it, off it, and against rows out of order.
func TestWireRelSetsOffGraph(t *testing.T) {
	atlases := []*Atlas{offGraphFixture()}
	rng := rand.New(rand.NewSource(7))
	for range 200 {
		atlases = append(atlases, relTable(rng))
	}
	for i, a := range atlases {
		b := wireBytes(t, a.Encode)
		if !decodeBothWays(t, b) {
			t.Fatalf("atlas %d does not decode", i)
		}
		got, err := Decode(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		sameShipped(t, "atlas", got, a)
	}
}

// TestDecodeRefusesVersion4 pins what a peer holding a v4 file hears: the
// version, not a misread section.
func TestDecodeRefusesVersion4(t *testing.T) { refusesVersion(t, 4) }

// TestDecodeRefusesVersion5 is the same for a v5 file, whose prefix → AS,
// AS degrees and links sections a v6 reader would misread.
func TestDecodeRefusesVersion5(t *testing.T) { refusesVersion(t, 5) }

// refusesVersion holds both doors to refusing a stream of version v by name.
func refusesVersion(t *testing.T, v uint64) {
	t.Helper()
	var sw sectionWriter
	sw.uvarint(v)
	for _, sec := range []uint64{0, 0, 0} { // a day, a cluster count, section 0 of no clusters
		sw.uvarint(sec)
	}
	raw := gzipped(t, atlasMagic, sw.buf.Bytes())
	_, mapErr := Decode(bytes.NewReader(raw))
	_, flatErr := DecodeFlat(bytes.NewReader(raw))
	for _, err := range []error{mapErr, flatErr} {
		if want := fmt.Sprintf("atlas: decoding atlas: unsupported version %d", v); err == nil || !errors.Is(err, ErrVersion) || err.Error() != want {
			t.Fatalf("err %v, want %q", err, want)
		}
	}
}

// sectionCount returns the record count a's section sec starts with: for a
// section of exceptions, how many it writes.
func sectionCount(a *Atlas, sec int) uint64 {
	var sw sectionWriter
	a.encodeSection(sec, newASGraph(sortedKeys(a.Rels)), &sw)
	n, _ := binary.Uvarint(sw.buf.Bytes())
	return n
}

// TestWireOriginExceptions: the prefix → AS section of a built atlas writes
// only the prefixes whose origin is not their cluster's AS, and both doors
// rebuild the whole table from them; on the fixture, an origin of 0 comes
// back as 0 and an absent origin as absent.
func TestWireOriginExceptions(t *testing.T) {
	for _, a := range []*Atlas{builtAtlas(t, 1, 0), offGraphFixture()} {
		want := 0
		for p, as := range a.PrefixAS {
			if c, ok := a.PrefixCluster[p]; !ok || a.ClusterAS[c] != as {
				want++
			}
		}
		for p := range a.PrefixCluster {
			if _, ok := a.PrefixAS[p]; !ok {
				want++
			}
		}
		if got := sectionCount(a, secPrefixAS); got != uint64(want) || got >= uint64(len(a.PrefixAS)) {
			t.Fatalf("%d exceptions written, want %d of %d origins", got, want, len(a.PrefixAS))
		}
		got := roundTrip(t, a)
		if !maps.Equal(got.PrefixAS, a.PrefixAS) {
			t.Fatalf("origins differ:\n got %v\nwant %v", got.PrefixAS, a.PrefixAS)
		}
	}
	got := roundTrip(t, offGraphFixture())
	if as, ok := got.PrefixAS[105]; !ok || as != 0 {
		t.Fatalf("origin 0 came back as %d, %v", as, ok)
	}
	if _, ok := got.PrefixAS[103]; ok {
		t.Fatal("a prefix with no origin came back with one")
	}
}

// TestWireDegreesFromRows: a built atlas's degrees are its relationship
// rows' lengths, so its AS degrees section writes none; the fixture's
// degrees that differ, are missing, or have no row come back as they were.
func TestWireDegreesFromRows(t *testing.T) {
	a := builtAtlas(t, 1, 0)
	if got := sectionCount(a, secASDegree); got != 0 || len(a.ASDegree) == 0 {
		t.Fatalf("%d degree exceptions written for %d degrees, want none", got, len(a.ASDegree))
	}
	for _, a := range []*Atlas{a, offGraphFixture()} {
		if got := roundTrip(t, a); !maps.Equal(got.ASDegree, a.ASDegree) {
			t.Fatalf("degrees differ:\n got %v\nwant %v", got.ASDegree, a.ASDegree)
		}
	}
	if got := sectionCount(offGraphFixture(), secASDegree); got != 5 {
		t.Fatalf("the fixture writes %d degree exceptions, want 5 (ASes 3, 5, 7, 9, 100)", got)
	}
}

// TestWireFarEnds: every far end of a built atlas is among its near end's
// candidates, so its links section escapes none; an atlas whose clusters
// are numbered out of AS order, as a later day's are, so that a near end's
// slots come out of (From, To) order, still decodes through both doors to
// the links it holds, in (From, To) order; and so does one whose
// relationships name a slot twice.
func TestWireFarEnds(t *testing.T) {
	for day := range 2 {
		a := builtAtlas(t, 1, day)
		cg := newClusterGroups(a.ClusterAS, newASGraph(sortedKeys(a.Rels)))
		escapes := 0
		for _, l := range a.Links {
			if !isCandidate(cg, l.From, l.To) {
				escapes++
			}
		}
		if escapes != 0 {
			t.Fatalf("day %d: %d of %d far ends are no candidate of their near end", day, escapes, len(a.Links))
		}
		p := permuted(a)
		b := wireBytes(t, p.Encode)
		if !decodeBothWays(t, b) {
			t.Fatalf("day %d: the permuted atlas does not decode", day)
		}
		got, err := Decode(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		checkLinkOrder(t, "permuted", got)
		sameShipped(t, "permuted", got, p)
	}
	// A relationship of AS 7 with itself gives its clusters' near ends the
	// slot of their own AS twice; a far end is written in the first, and
	// the pair of links of clusters 0 and 1 round-trips.
	a := wireFixture()
	a.Rels[netsim.ASPairKey(7, 7)] = netsim.RelSibling
	sameShipped(t, "self relationship", roundTrip(t, a), a)
}

// builtAtlas is buildTestAtlas on the wire's grid.
func builtAtlas(t testing.TB, seed int64, day int) *Atlas {
	a, _, _ := buildTestAtlas(t, seed, day)
	return onGrid(a)
}

// roundTrip returns Decode(Encode(a)), which both doors must accept alike.
func roundTrip(t testing.TB, a *Atlas) *Atlas {
	t.Helper()
	b := wireBytes(t, a.Encode)
	if !decodeBothWays(t, b) {
		t.Fatal("the atlas does not decode")
	}
	got, err := Decode(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// permuted returns a with its clusters numbered backwards, so that no
// bucket's far ends come in candidate order.
func permuted(a *Atlas) *Atlas {
	n := cluster.ClusterID(a.NumClusters)
	re := func(c cluster.ClusterID) cluster.ClusterID { return n - 1 - c }
	reKey := func(k uint64) uint64 {
		return LinkKey(re(cluster.ClusterID(uint32(k>>32))), re(cluster.ClusterID(uint32(k))))
	}
	p := a.Clone()
	for c, as := range a.ClusterAS {
		p.ClusterAS[re(cluster.ClusterID(c))] = as
	}
	for i, l := range a.Links {
		p.Links[i].From, p.Links[i].To = re(l.From), re(l.To)
	}
	slices.SortFunc(p.Links, linkOrder)
	p.Loss = map[uint64]float32{}
	for k, v := range a.Loss {
		p.Loss[reKey(k)] = v
	}
	p.ObservedLinks = map[uint64]uint8{}
	for k, v := range a.ObservedLinks {
		p.ObservedLinks[reKey(k)] = v
	}
	for pfx, c := range a.PrefixCluster {
		p.PrefixCluster[pfx] = re(c)
	}
	for pfx, c := range a.IfaceCluster {
		p.IfaceCluster[pfx] = re(c)
	}
	return p
}

// TestLatencyBound holds every door to the wire's latency bound: the atlas
// and delta encoders refuse a link of 70 000 ms, the atlas decoders a
// record or a reverse at the bound (TestDecodeRejectsUnsortedKeys), the
// delta decoder a new link at it, and both Apply paths a re-annotation that
// lands on it. A latency one step below it round-trips.
func TestLatencyBound(t *testing.T) {
	day0 := builtAtlas(t, 1, 0)
	far := day0.Clone()
	far.Links[0].LatencyMS = 70_000
	if err := far.Encode(io.Discard); err == nil {
		t.Fatal("Atlas.Encode wrote a 70 000 ms link")
	}
	if err := Diff(day0, far).Encode(io.Discard); err == nil {
		t.Fatal("Delta.Encode wrote a 70 000 ms link")
	}
	edge := day0.Clone()
	edge.Links[0].LatencyMS = unquantLat(maxLatUnits - 1)
	if got := roundTrip(t, edge); got.Links[0].LatencyMS != edge.Links[0].LatencyMS {
		t.Fatalf("%v ms came back as %v", edge.Links[0].LatencyMS, got.Links[0].LatencyMS)
	}

	b := Compile(day0)
	n := cluster.ClusterID(day0.NumClusters)
	newLink := []Link{{From: n - 1, To: 0, LatencyMS: maxLatUnits / 100, Planes: PlaneToDst}}
	if _, err := DecodeDelta(bytes.NewReader(rawDeltaBytes(t, b.baseName(), 1, newLink, &deltaRefs{}, nil))); err == nil ||
		!strings.Contains(err.Error(), "at or past the 65536 ms bound") {
		t.Fatalf("a new link of 65 536 ms: %v", err)
	}
	d, err := DecodeDelta(bytes.NewReader(rawDelta(t, b.baseName(), 1, nil,
		&deltaRefs{reLinks: []uint64{0}, reLat: []int64{maxLatUnits}, rePlanes: []uint8{PlaneToDst}}, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Compile(day0).Apply(d); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("Flat.Apply of a re-annotation past the bound: %v", err)
	}
	if err := day0.Clone().Apply(d); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("Atlas.Apply of a re-annotation past the bound: %v", err)
	}
}

// TestEncodeKeepsLastUpsert is the regression test for a delta whose
// upserts repeat a key: Encode sorted them with an unstable sort, so which
// copy the wire carried last — the one Apply keeps — was unspecified. A
// delta with repeated and reversed upserts makes the same Flat applied as
// it stands and applied after a trip through the wire.
func TestEncodeKeepsLastUpsert(t *testing.T) {
	day0, _, _ := buildTestAtlas(t, 1, 0)
	day1, _, _ := buildTestAtlas(t, 1, 1)
	d := Diff(onGrid(day0), onGrid(day1))
	// Eight rounds of the same upserts at rising latencies, among the real
	// ones: each key's last is round 7's, which an unstable sort of a few
	// hundred links need not leave last.
	up := repeatedUpserts(day0)
	for round := range 8 {
		for _, l := range up.UpLinks {
			l.LatencyMS += float32(round)
			d.UpLinks = append(d.UpLinks, l)
		}
	}
	d.DelLinks = append(d.DelLinks, up.DelLinks...)
	wire, err := DecodeDelta(bytes.NewReader(wireBytes(t, d.Encode)))
	if err != nil {
		t.Fatal(err)
	}
	base := Compile(day0)
	direct, _, _ := applied(t, base, d)
	via, _, _ := applied(t, base, wire)
	sameFlat(t, via, direct)
}
