package atlas

import (
	"bytes"
	"io"
	"maps"
	"math/rand"
	"slices"
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

// linkTable is an atlas of up to 12 clusters and nothing but links, drawn
// so that every shape the links section carries turns up: one-way links
// either way round, self links, pairs with equal and with different
// latencies and planes, and links at clusters 0 and n-1.
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
func TestDecodeRefusesVersion4(t *testing.T) {
	var sw sectionWriter
	sw.uvarint(4)
	raw := gzipped(t, atlasMagic, sw.buf.Bytes())
	_, mapErr := Decode(bytes.NewReader(raw))
	_, flatErr := DecodeFlat(bytes.NewReader(raw))
	for _, err := range []error{mapErr, flatErr} {
		if err == nil || err.Error() != "atlas: decoding atlas: unsupported version 4" {
			t.Fatalf("err %v, want the unsupported version", err)
		}
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
