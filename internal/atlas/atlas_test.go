package atlas

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"inano/internal/bgpsim"
	"inano/internal/cluster"
	"inano/internal/netsim"
	"inano/internal/trace"
)

// buildTestAtlas runs a small end-to-end measurement campaign and builds an
// atlas from it.
func buildTestAtlas(t testing.TB, seed int64, day int) (*Atlas, *netsim.Topology, *bgpsim.Sim) {
	t.Helper()
	top := netsim.Generate(netsim.TestConfig(seed))
	sim := bgpsim.New(top)
	dv := sim.Day(day)
	m := trace.NewMeter(dv)
	vps := trace.SelectVantagePoints(top, 12)
	targets := top.EdgePrefixes
	if len(targets) > 80 {
		targets = targets[:80]
	}
	c := trace.RunCampaign(m, vps, targets)
	a := Build(BuildInput{
		Top:      top,
		Day:      dv,
		Meter:    m,
		VPTraces: c.Traceroutes,
		BGPFeeds: DefaultFeeds(top, 5),

		ClusterCfg: cluster.DefaultConfig(),
	})
	return a, top, sim
}

func TestBuildPopulatesAllDatasets(t *testing.T) {
	a, _, _ := buildTestAtlas(t, 41, 0)
	c := a.Counts()
	if c.Links == 0 {
		t.Error("no links")
	}
	if c.PrefixCluster == 0 {
		t.Error("no prefix->cluster entries")
	}
	if c.PrefixAS == 0 {
		t.Error("no prefix->AS entries")
	}
	if c.ASDegree == 0 {
		t.Error("no AS degrees")
	}
	if c.Tuples == 0 {
		t.Error("no 3-tuples")
	}
	if c.Providers == 0 {
		t.Error("no provider mappings")
	}
	if c.Rels == 0 {
		t.Error("no inferred relationships")
	}
	if a.NumClusters == 0 {
		t.Error("no clusters")
	}
}

func TestBuildLinksAnnotated(t *testing.T) {
	a, _, _ := buildTestAtlas(t, 42, 0)
	for _, l := range a.Links {
		if l.LatencyMS <= 0 {
			t.Fatalf("link %d->%d has latency %v", l.From, l.To, l.LatencyMS)
		}
		if l.Planes == 0 {
			t.Fatalf("link %d->%d has no plane tag", l.From, l.To)
		}
		if int(l.From) >= a.NumClusters || int(l.To) >= a.NumClusters {
			t.Fatalf("link %d->%d outside cluster space %d", l.From, l.To, a.NumClusters)
		}
	}
	for k, loss := range a.Loss {
		if loss < 0.005 || loss > 1 {
			t.Fatalf("recorded loss %v out of range for key %d", loss, k)
		}
		if a.LinkAt(cluster.ClusterID(k>>32), cluster.ClusterID(uint32(k))) < 0 {
			t.Fatalf("loss entry for unknown link %d", k)
		}
	}
}

func TestBuildTuplesCommutative(t *testing.T) {
	a, _, _ := buildTestAtlas(t, 43, 0)
	for k := range a.Tuples {
		x, y, z := UnpackTriple(k)
		if !a.HasTuple(z, y, x) {
			t.Fatalf("tuple (%d,%d,%d) present but reverse missing", x, y, z)
		}
	}
}

func TestBuildPrefsConsistent(t *testing.T) {
	a, _, _ := buildTestAtlas(t, 44, 0)
	for k := range a.Prefs {
		x, y, z := UnpackTriple(k)
		if a.Prefers(x, z, y) {
			t.Fatalf("contradictory preferences (%d: %d>%d) and (%d: %d>%d)", x, y, z, x, z, y)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a1, _, _ := buildTestAtlas(t, 45, 0)
	a2, _, _ := buildTestAtlas(t, 45, 0)
	if a1.Counts() != a2.Counts() {
		t.Fatalf("nondeterministic build: %+v vs %+v", a1.Counts(), a2.Counts())
	}
	for i := range a1.Links {
		if a1.Links[i] != a2.Links[i] {
			t.Fatalf("link %d differs", i)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	a, _, _ := buildTestAtlas(t, 46, 0)
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Day != a.Day || got.NumClusters != a.NumClusters {
		t.Fatalf("header mismatch: day %d/%d clusters %d/%d", got.Day, a.Day, got.NumClusters, a.NumClusters)
	}
	if got.Counts() != a.Counts() {
		t.Fatalf("counts mismatch: %+v vs %+v", got.Counts(), a.Counts())
	}
	for i := range a.Links {
		w, g := a.Links[i], got.Links[i]
		if w.From != g.From || w.To != g.To || w.Planes != g.Planes {
			t.Fatalf("link %d mismatch: %+v vs %+v", i, w, g)
		}
		if math.Abs(float64(w.LatencyMS-g.LatencyMS)) > 0.006 {
			t.Fatalf("link %d latency quantization error too large: %v vs %v", i, w.LatencyMS, g.LatencyMS)
		}
	}
	for k := range a.Tuples {
		if !got.Tuples[k] {
			t.Fatalf("tuple %d lost", k)
		}
	}
	for k, v := range a.Rels {
		if got.Rels[k] != v {
			t.Fatalf("rel %d mismatch", k)
		}
	}
	for p, c := range a.PrefixCluster {
		if got.PrefixCluster[p] != c {
			t.Fatalf("prefix %v cluster mismatch", p)
		}
	}
}

// TestCodecRoundTripLargeASN covers ASN values above the decoder's
// record-count sanity limit: 32-bit ASNs (RFC 6793) are legitimate values,
// and the value reader must not confuse them with a hostile record count.
func TestCodecRoundTripLargeASN(t *testing.T) {
	a, _, _ := buildTestAtlas(t, 48, 0)
	const bigASN = netsim.ASN(4_200_000_000) // 32-bit private-use range
	var p netsim.Prefix
	for p = range a.PrefixAS {
		break
	}
	a.PrefixAS[p] = bigASN
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("atlas with 32-bit ASN failed to decode: %v", err)
	}
	if got.PrefixAS[p] != bigASN {
		t.Fatalf("prefix %v AS mismatch: got %d, want %d", p, got.PrefixAS[p], bigASN)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("not an atlas"))); err == nil {
		t.Fatal("garbage accepted")
	}
	a, _, _ := buildTestAtlas(t, 47, 0)
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	// Truncations at various points must error, not panic or hang.
	for _, cut := range []int{10, 50, buf.Len() / 2, buf.Len() - 5} {
		if cut >= buf.Len() {
			continue
		}
		if _, err := Decode(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDiffApplyInvariant(t *testing.T) {
	d0, _, _ := buildTestAtlas(t, 48, 0)
	d1, _, _ := buildTestAtlas(t, 48, 1)
	delta := Diff(d0, d1)
	if delta.Entries() == 0 {
		t.Fatal("no delta between consecutive days; churn inert")
	}
	applied := d0.Clone()
	if err := applied.Apply(delta); err != nil {
		t.Fatal(err)
	}
	if applied.Day != d1.Day {
		t.Fatalf("day %d after apply, want %d", applied.Day, d1.Day)
	}
	if len(applied.Links) != len(d1.Links) {
		t.Fatalf("links %d after apply, want %d", len(applied.Links), len(d1.Links))
	}
	for i := range d1.Links {
		if applied.Links[i] != d1.Links[i] {
			t.Fatalf("link %d mismatch after apply: %+v vs %+v", i, applied.Links[i], d1.Links[i])
		}
	}
	if len(applied.Loss) != len(d1.Loss) {
		t.Fatalf("loss %d after apply, want %d", len(applied.Loss), len(d1.Loss))
	}
	for k, v := range d1.Loss {
		if applied.Loss[k] != v {
			t.Fatalf("loss %d mismatch", k)
		}
	}
	if len(applied.Tuples) != len(d1.Tuples) {
		t.Fatalf("tuples %d after apply, want %d", len(applied.Tuples), len(d1.Tuples))
	}
	for k := range d1.Tuples {
		if !applied.Tuples[k] {
			t.Fatalf("tuple %d missing after apply", k)
		}
	}
}

func TestDeltaSmallerThanAtlas(t *testing.T) {
	d0, _, _ := buildTestAtlas(t, 49, 0)
	d1, _, _ := buildTestAtlas(t, 49, 1)
	delta := Diff(d0, d1)
	full := d1.EncodedSize()
	ds := delta.EncodedSize()
	if ds == 0 || full == 0 {
		t.Fatal("encoding failed")
	}
	if ds >= full {
		t.Errorf("delta (%d B) not smaller than full atlas (%d B); stationarity broken", ds, full)
	}
}

func TestDeltaCodecRoundTrip(t *testing.T) {
	d0, _, _ := buildTestAtlas(t, 50, 0)
	d1, _, _ := buildTestAtlas(t, 50, 1)
	delta := Diff(d0, d1)
	var bare bytes.Buffer
	if err := delta.Encode(&bare); err != nil {
		t.Fatal(err)
	}
	// Client-local corrections never travel: the bytes are the same with
	// and without them, and they do not come back.
	delta.LocalAdjust = map[netsim.Prefix]float32{netsim.Prefix(7): 12.5}
	var buf bytes.Buffer
	if err := delta.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), bare.Bytes()) {
		t.Fatal("LocalAdjust changed the encoded delta")
	}
	got, err := DecodeDelta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.LocalAdjust) != 0 {
		t.Fatalf("LocalAdjust survived the codec: %v", got.LocalAdjust)
	}
	if got.FromDay != delta.FromDay || got.ToDay != delta.ToDay {
		t.Fatalf("delta header mismatch")
	}
	// Removals and re-annotations of base links come back as indices.
	if len(got.UpLinks)+len(got.refs.reLinks) != len(delta.UpLinks) ||
		len(got.refs.delLinks) != len(delta.DelLinks) ||
		len(got.UpLoss) != len(delta.UpLoss) ||
		len(got.AddTuples) != len(delta.AddTuples) ||
		len(got.refs.delTuples) != len(delta.DelTuples) {
		t.Fatalf("delta shape mismatch: %d+%d/%d links, %d/%d dels", len(got.UpLinks), len(got.refs.reLinks), len(delta.UpLinks), len(got.refs.delLinks), len(delta.DelLinks))
	}
	for _, k := range delta.AddTuples {
		found := false
		for _, g := range got.AddTuples {
			if g == k {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("tuple %d lost in delta codec", k)
		}
	}
}

func TestDeltaDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeDelta(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("garbage delta accepted")
	}
}

func TestPackTripleRoundTrip(t *testing.T) {
	f := func(a, b, c uint32) bool {
		x := netsim.ASN(a % MaxASN)
		y := netsim.ASN(b % MaxASN)
		z := netsim.ASN(c % MaxASN)
		ga, gb, gc := UnpackTriple(PackTriple(x, y, z))
		return ga == x && gb == y && gc == z
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantization(t *testing.T) {
	f := func(raw uint16) bool {
		ms := float32(raw) / 50 // up to ~1310 ms
		got := unquantLat(quantLat(ms))
		return math.Abs(float64(got-ms)) <= 0.005001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(raw uint16) bool {
		l := float32(raw) / 65535
		got := unquantLoss(quantLoss(l))
		return math.Abs(float64(got-l)) <= 0.00005001
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLinkAtIndex(t *testing.T) {
	a, _, _ := buildTestAtlas(t, 51, 0)
	for i, l := range a.Links {
		if got := a.LinkAt(l.From, l.To); got != int32(i) {
			t.Fatalf("LinkAt(%d,%d) = %d, want %d", l.From, l.To, got, i)
		}
	}
	if a.LinkAt(cluster.ClusterID(a.NumClusters+5), 0) != -1 {
		t.Fatal("bogus link found")
	}
	// The compiled form answers the same lookups off its CSR buckets.
	f := Compile(a)
	for _, l := range a.Links {
		if got, ok := f.LinkAt(l.From, l.To); !ok || got != l {
			t.Fatalf("Flat.LinkAt(%d,%d) = %+v, %v, want %+v", l.From, l.To, got, ok, l)
		}
	}
	n := cluster.ClusterID(a.NumClusters)
	for _, ft := range [][2]cluster.ClusterID{{n + 5, 0}, {0, n}, {0, -1}, {0, 0}} {
		if l, ok := f.LinkAt(ft[0], ft[1]); ok {
			t.Fatalf("Flat.LinkAt(%d,%d) found %+v", ft[0], ft[1], l)
		}
	}
}

// indexAtlas builds a small atlas with n sequential links 0->1->...->n.
func indexAtlas(n int) *Atlas {
	a := New()
	a.NumClusters = n + 1
	a.ClusterAS = make([]netsim.ASN, n+1)
	for i := range a.ClusterAS {
		a.ClusterAS[i] = netsim.ASN(100 + i)
	}
	for i := 0; i < n; i++ {
		a.Links = append(a.Links, Link{
			From: cluster.ClusterID(i), To: cluster.ClusterID(i + 1),
			LatencyMS: float32(i + 1), Planes: PlaneToDst,
		})
	}
	return a
}

// TestCloneLinkIsolation checks that a copy-on-write clone and its parent
// never see each other's links: adding a link to the clone (the FoldPaths
// pattern) must not surface in the parent's lookups, and vice versa.
func TestCloneLinkIsolation(t *testing.T) {
	parent := indexAtlas(8)
	clone := parent.Clone()
	clone.Links = append(clone.Links, Link{From: 7, To: 0, LatencyMS: 9, Planes: PlaneFromSrc})
	slices.SortFunc(clone.Links, linkOrder)
	if got := clone.LinkAt(7, 0); got < 0 {
		t.Fatal("clone cannot see its own added link")
	}
	if got := parent.LinkAt(7, 0); got >= 0 {
		t.Fatalf("parent sees the clone's link at %d", got)
	}
	for i := 0; i < 8; i++ {
		li := parent.LinkAt(cluster.ClusterID(i), cluster.ClusterID(i+1))
		if li < 0 || parent.Links[li].From != cluster.ClusterID(i) {
			t.Fatalf("parent.LinkAt(%d,%d) resolved to %d", i, i+1, li)
		}
	}

	parent.Links = append(parent.Links, Link{From: 5, To: 0, LatencyMS: 3, Planes: PlaneToDst})
	slices.SortFunc(parent.Links, linkOrder)
	if got := clone.LinkAt(5, 0); got >= 0 {
		t.Fatalf("clone sees the parent's new link at %d", got)
	}
}

func TestSectionSizesCoverAtlas(t *testing.T) {
	a, _, _ := buildTestAtlas(t, 52, 0)
	sizes := a.SectionSizes()
	if len(sizes) != numSections {
		t.Fatalf("got %d sections", len(sizes))
	}
	totalEntries := 0
	for _, s := range sizes {
		if s.Compressed <= 0 {
			t.Fatalf("section %s has no bytes", s.Name)
		}
		totalEntries += s.Entries
	}
	if totalEntries == 0 {
		t.Fatal("no entries in any section")
	}
}
