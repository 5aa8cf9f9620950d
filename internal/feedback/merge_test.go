package feedback

import (
	"reflect"
	"testing"

	"inano/internal/atlas"
	"inano/internal/cluster"
	"inano/internal/netsim"
)

// testAtlas hand-builds a 4-cluster atlas:
//
//	cluster 0 (AS 1) -> cluster 1 (AS 1) -> cluster 2 (AS 2), cluster 3 (AS 2) unlinked
//
// with prefixes p0..p3 attached to the matching clusters, all TO_DST.
func testAtlas() *atlas.Atlas {
	a := atlas.New()
	a.NumClusters = 4
	a.ClusterAS = []netsim.ASN{1, 1, 2, 2}
	a.Links = []atlas.Link{
		{From: 0, To: 1, LatencyMS: 5, Planes: atlas.PlaneToDst},
		{From: 1, To: 2, LatencyMS: 10, Planes: atlas.PlaneToDst},
	}
	for i := 0; i < 4; i++ {
		p := netsim.Prefix(100 + i)
		a.PrefixCluster[p] = cluster.ClusterID(i)
		a.PrefixAS[p] = netsim.ASN(1 + i/2)
	}
	return a
}

func pfx(i int) netsim.Prefix { return netsim.Prefix(100 + i) }
func ip(i int) netsim.IP      { return pfx(i).HostIP() }

// applied merges trs into f and returns the emitted delta, the atlas with
// it applied, and the change counts.
func applied(t *testing.T, f *atlas.Flat, local map[netsim.Prefix]int32, trs []Traceroute) (*atlas.Delta, *atlas.Flat, int, int) {
	t.Helper()
	d, structural, residual := Merge(f, local, trs)
	if d.FromDay != int(f.Day) || d.ToDay != int(f.Day) {
		t.Fatalf("delta is day %d->%d, want inside day %d", d.FromDay, d.ToDay, f.Day)
	}
	if len(d.DelLinks)+len(d.DelPrefixCluster)+len(d.UpAdjust)+len(d.DelAdjust)+len(d.UpLoss) != 0 {
		t.Fatalf("a merge only adds, tags and sets local corrections: %+v", d)
	}
	nf, _, err := f.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := nf.Validate(); err != nil {
		t.Fatal(err)
	}
	return d, nf, structural, residual
}

func localAdjust(f *atlas.Flat, p netsim.Prefix) float32 {
	_, l, _ := f.Adjust(p)
	return l
}

func TestMergeTagsAndAddsLinks(t *testing.T) {
	a := testAtlas()
	local := map[netsim.Prefix]int32{}
	src := netsim.Prefix(999) // unknown prefix, but BGP knows its AS
	a.PrefixAS[src] = 1
	f := atlas.Compile(a)
	trs := []Traceroute{{
		Src: src,
		Dst: pfx(3),
		Hops: []Hop{
			{IP: ip(0), RTTMS: 2},
			{IP: ip(1), RTTMS: 12},
			{IP: ip(3), RTTMS: 40}, // new link 1->3
		},
	}}
	d, nf, added, residual := applied(t, f, local, trs)
	// Expected: plane tag on 0->1, new link 1->3, attachment for src — all
	// structural; no destination-host answer, so no residual.
	if added != 3 || residual != 0 {
		t.Fatalf("added = %d, residual = %d, want 3, 0", added, residual)
	}
	wantLinks := []atlas.Link{
		{From: 0, To: 1, LatencyMS: 5, Planes: atlas.PlaneToDst | atlas.PlaneFromSrc},
		{From: 1, To: 3, LatencyMS: 14, Planes: atlas.PlaneFromSrc}, // (40-12)/2
	}
	if !reflect.DeepEqual(d.UpLinks, wantLinks) {
		t.Fatalf("UpLinks = %+v, want %+v", d.UpLinks, wantLinks)
	}
	if len(d.UpPrefixCluster) != 1 || d.UpPrefixCluster[src] != 0 || len(d.AddClusterAS) != 0 || len(d.LocalAdjust) != 0 {
		t.Fatalf("delta carries more than src's attachment to cluster 0: %+v", d)
	}
	for _, want := range wantLinks {
		if l, ok := nf.LinkAt(want.From, want.To); !ok || l != want {
			t.Fatalf("%d->%d after apply: %+v, %v", want.From, want.To, l, ok)
		}
	}
	if l, _ := nf.LinkAt(1, 2); l.Planes != atlas.PlaneToDst {
		t.Fatalf("untraversed link 1->2 re-tagged: %+v", l)
	}
	if cl, ok := nf.ClusterOf(src); !ok || cl != 0 {
		t.Fatalf("src attachment = %v, %v", cl, ok)
	}
	// Re-merging the same traceroutes is a no-op: everything is patched.
	if d2, s2, r2 := Merge(nf, local, trs); s2 != 0 || r2 != 0 || d2.Entries() != 0 {
		t.Fatalf("second merge added %d structural, %d residual, %d delta entries, want 0", s2, r2, d2.Entries())
	}
}

// TestMergeBatchSeesItsOwnChanges: what one traceroute of a batch teaches
// is visible to the next — links, tags, the attachment, a local cluster and
// a residual step are each counted and emitted once.
func TestMergeBatchSeesItsOwnChanges(t *testing.T) {
	a := testAtlas()
	src, unknown := netsim.Prefix(999), netsim.Prefix(500)
	a.PrefixAS[src], a.PrefixAS[unknown] = 1, 2
	tr := Traceroute{
		Src: src,
		Dst: pfx(3),
		Hops: []Hop{
			{IP: ip(0), RTTMS: 2},
			{IP: ip(1), RTTMS: 12},
			{IP: unknown.HostIP(), RTTMS: 20},
			{IP: ip(3), RTTMS: 40},
		},
		PredictedRTTMS: 30,
		Predicted:      true,
	}
	again := tr
	again.PredictedRTTMS = 35 // scored against the once-corrected prediction
	one, _, s1, r1 := applied(t, atlas.Compile(a), map[netsim.Prefix]int32{}, []Traceroute{tr})
	local := map[netsim.Prefix]int32{}
	two, nf, s2, r2 := applied(t, atlas.Compile(a), local, []Traceroute{tr, again})
	if s1 != 4 || r1 != 1 || s2 != s1 || r2 != 2 {
		t.Fatalf("counts: one traceroute %d/%d, the same twice %d/%d; want 4/1 and 4/2", s1, r1, s2, r2)
	}
	if !reflect.DeepEqual(two.UpLinks, one.UpLinks) || !reflect.DeepEqual(two.UpPrefixCluster, one.UpPrefixCluster) ||
		!reflect.DeepEqual(two.AddClusterAS, []netsim.ASN{2}) || local[unknown] != 0 {
		t.Fatalf("the repeat changed the structure:\n once  %+v\n twice %+v", one, two)
	}
	// 30 -> +5 (halfway to 40), then 35 -> +2.5 more.
	if one.LocalAdjust[pfx(3)] != 5 || two.LocalAdjust[pfx(3)] != 7.5 || localAdjust(nf, pfx(3)) != 7.5 {
		t.Fatalf("residual steps: %v then %v (applied %v), want 5 then 7.5",
			one.LocalAdjust[pfx(3)], two.LocalAdjust[pfx(3)], localAdjust(nf, pfx(3)))
	}
}

func TestMergeDuplicateHops(t *testing.T) {
	// The same interface answering consecutive TTLs (a real traceroute
	// artifact) and two interfaces of one cluster must not create
	// self-links.
	trs := []Traceroute{{
		Src: pfx(0),
		Dst: pfx(2),
		Hops: []Hop{
			{IP: ip(1), RTTMS: 10},
			{IP: ip(1), RTTMS: 11}, // duplicate hop
			{IP: ip(1) + 1, RTTMS: 12},
			{IP: ip(2), RTTMS: 30},
		},
	}}
	d, _, structural, _ := applied(t, atlas.Compile(testAtlas()), map[netsim.Prefix]int32{}, trs)
	if structural != 1 || len(d.UpLinks) != 1 || d.UpLinks[0].From != 1 || d.UpLinks[0].To != 2 {
		t.Fatalf("want the one tag on 1->2, got %d changes: %+v", structural, d.UpLinks)
	}
}

func TestMergeDecreasingRTTClamped(t *testing.T) {
	// RTT decreasing along the path (asymmetric reverse paths, noise):
	// the latency delta is negative and must clamp to the 0.1ms floor,
	// never a negative link.
	trs := []Traceroute{{
		Src: pfx(0),
		Dst: pfx(3),
		Hops: []Hop{
			{IP: ip(2), RTTMS: 50},
			{IP: ip(3), RTTMS: 20}, // "earlier" hop measured slower
		},
	}}
	_, nf, structural, _ := applied(t, atlas.Compile(testAtlas()), map[netsim.Prefix]int32{}, trs)
	if structural == 0 {
		t.Fatal("nothing merged")
	}
	l, ok := nf.LinkAt(2, 3)
	if !ok {
		t.Fatal("2->3 not added")
	}
	if l.LatencyMS != 0.1 {
		t.Fatalf("latency = %v, want clamp 0.1", l.LatencyMS)
	}
}

func TestMergeUnresponsiveHopsBreakAdjacency(t *testing.T) {
	trs := []Traceroute{{
		Src: pfx(0),
		Dst: pfx(3),
		Hops: []Hop{
			{IP: ip(0), RTTMS: 2},
			{},                     // '*' hop
			{IP: ip(3), RTTMS: 40}, // must NOT produce a 0->3 link
		},
	}}
	d, nf, _, _ := applied(t, atlas.Compile(testAtlas()), map[netsim.Prefix]int32{}, trs)
	if _, ok := nf.LinkAt(0, 3); ok || d.Entries() != 0 {
		t.Fatalf("link bridged across an unresponsive hop: %+v", d)
	}
	// Hops that never answered teach nothing at all.
	silent := []Traceroute{{Src: netsim.Prefix(999), Dst: pfx(3), Hops: []Hop{{}, {}}}, {Src: pfx(0), Dst: pfx(2)}}
	if d, s, r := Merge(atlas.Compile(testAtlas()), map[netsim.Prefix]int32{}, silent); s != 0 || r != 0 || d.Entries() != 0 {
		t.Fatalf("all-unresponsive batch emitted %d entries (%d/%d)", d.Entries(), s, r)
	}
}

func TestMergeLocalClusterAllocation(t *testing.T) {
	a := testAtlas()
	local := map[netsim.Prefix]int32{}
	unknown := netsim.Prefix(500)
	a.PrefixAS[unknown] = 2
	trs := []Traceroute{{
		Src: pfx(0),
		Dst: pfx(2),
		Hops: []Hop{
			{IP: ip(1), RTTMS: 10},
			{IP: unknown.HostIP(), RTTMS: 20},
			{IP: unknown.HostIP() + 1, RTTMS: 21}, // same /24 -> same local cluster
			{IP: ip(2), RTTMS: 30},
		},
	}}
	d, nf, _, _ := applied(t, atlas.Compile(a), local, trs)
	if nf.NumClusters != 5 || !reflect.DeepEqual(d.AddClusterAS, []netsim.ASN{2}) {
		t.Fatalf("NumClusters = %d, AddClusterAS = %v, want 5 and [2] (one local cluster for the /24)", nf.NumClusters, d.AddClusterAS)
	}
	// The first local cluster, index 0 past the 4 shipped: cluster 4.
	if k, ok := local[unknown]; !ok || k != 0 {
		t.Fatalf("local cluster allocation: %v, %v", k, ok)
	}
	if nf.ClusterAS[4] != 2 {
		t.Fatalf("local cluster AS = %d, want 2", nf.ClusterAS[4])
	}
	for _, ft := range [][2]cluster.ClusterID{{1, 4}, {4, 2}} {
		if l, ok := nf.LinkAt(ft[0], ft[1]); !ok || l.Planes != atlas.PlaneFromSrc {
			t.Fatalf("link %d->%d through the local cluster: %+v, %v", ft[0], ft[1], l, ok)
		}
	}
	// The cluster alone is worth a delta: a hop in it with no neighbour to
	// link to still moved local, and the atlas must follow.
	lone := []Traceroute{{Src: pfx(0), Dst: pfx(2), Hops: []Hop{{IP: unknown.HostIP(), RTTMS: 20}}}}
	d, s, r := Merge(atlas.Compile(a), map[netsim.Prefix]int32{}, lone)
	if s != 0 || r != 0 || len(d.AddClusterAS) != 1 || d.Entries() != 1 {
		t.Fatalf("lone local cluster: %d/%d changes, delta %+v", s, r, d)
	}
	// An interface in address space BGP has never seen is ignored.
	trs[0].Hops[1].IP = netsim.Prefix(900).HostIP()
	trs[0].Hops[2].IP = 0
	unrouted := map[netsim.Prefix]int32{}
	if d, _, _ := Merge(atlas.Compile(testAtlas()), unrouted, trs); len(d.AddClusterAS) != 0 || len(unrouted) != 0 {
		t.Fatal("cluster allocated for unrouted address space")
	}
}

func TestLearnResidualConvergesAndCaps(t *testing.T) {
	f := atlas.Compile(testAtlas())
	local := map[netsim.Prefix]int32{}
	tr := Traceroute{
		Src:            pfx(0),
		Dst:            pfx(2),
		PredictedRTTMS: 100,
		Predicted:      true,
	}
	// Destination host answered with the true RTT 160: the correction
	// steps halfway (+30), then converges geometrically.
	tr.Hops = []Hop{{IP: ip(1), RTTMS: 10}, {IP: ip(2), RTTMS: 160}}
	d, f, _, got := applied(t, f, local, []Traceroute{tr})
	if got == 0 {
		t.Fatal("residual not counted as a change")
	}
	if adj := localAdjust(f, pfx(2)); adj != 30 || d.LocalAdjust[pfx(2)] != 30 {
		t.Fatalf("adjust after first probe = %v (delta %v), want 30", adj, d.LocalAdjust)
	}
	// Next probe is scored against the corrected prediction (130).
	tr.PredictedRTTMS = 130
	_, f, _, _ = applied(t, f, local, []Traceroute{tr})
	if adj := localAdjust(f, pfx(2)); adj != 45 {
		t.Fatalf("adjust after second probe = %v, want 45", adj)
	}

	// One absurd measurement cannot push the correction past the cap.
	tr.PredictedRTTMS = 10
	tr.Hops[1].RTTMS = 10_000
	_, f, _, _ = applied(t, f, local, []Traceroute{tr})
	if adj := localAdjust(f, pfx(2)); adj != MaxAdjustMS {
		t.Fatalf("adjust = %v, want cap %v", adj, MaxAdjustMS)
	}

	// A revision under the threshold does not make a delta on its own...
	tr.PredictedRTTMS = 10_000.4
	if d, s, r := Merge(f, local, []Traceroute{tr}); s != 0 || r != 0 || d.Entries() != 0 {
		t.Fatalf("0.2 ms revision alone: %d/%d, %d delta entries", s, r, d.Entries())
	}
	// ...but rides along with a batch that has one.
	other := Traceroute{Src: pfx(0), Dst: pfx(3), Hops: []Hop{{IP: ip(2), RTTMS: 5}, {IP: ip(3), RTTMS: 9}}}
	if d, _, r := Merge(f, local, []Traceroute{tr, other}); r != 0 || d.LocalAdjust[pfx(2)] != MaxAdjustMS-0.2 {
		t.Fatalf("0.2 ms revision beside a new link: residual %d, LocalAdjust %v", r, d.LocalAdjust)
	}

	// Unreached or unpredicted traceroutes learn nothing.
	b := atlas.Compile(testAtlas())
	unreached := tr
	unreached.Hops = []Hop{{IP: ip(1), RTTMS: 10}}
	unpredicted := tr
	unpredicted.Predicted = false
	if d, _, r := Merge(b, local, []Traceroute{unreached, unpredicted}); r != 0 || len(d.LocalAdjust) != 0 {
		t.Fatalf("unreached and unpredicted traceroutes learned residuals: %v", d.LocalAdjust)
	}
}

func TestMeasuredRTT(t *testing.T) {
	tr := Traceroute{Src: pfx(0), Dst: pfx(2)}
	if _, ok := tr.MeasuredRTT(); ok {
		t.Fatal("empty traceroute measured an RTT")
	}
	tr.Hops = []Hop{{IP: ip(1), RTTMS: 10}}
	if _, ok := tr.MeasuredRTT(); ok {
		t.Fatal("unreached traceroute measured an RTT")
	}
	tr.Hops = append(tr.Hops, Hop{IP: ip(2), RTTMS: 42})
	if rtt, ok := tr.MeasuredRTT(); !ok || rtt != 42 {
		t.Fatalf("MeasuredRTT = %v, %v", rtt, ok)
	}
}
