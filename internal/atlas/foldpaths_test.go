package atlas

import (
	"bytes"
	"strings"
	"testing"

	"inano/internal/cluster"
	"inano/internal/netsim"
)

// pathTestAtlas builds a small atlas for fold tests: 5 clusters, a
// measured TO_DST chain 0->1->2, and cluster 4 owned by the destination
// prefix's origin AS so access-tail reversal can trigger.
func pathTestAtlas() *Atlas {
	a := New()
	a.Day = 4
	a.NumClusters = 5
	a.ClusterAS = []netsim.ASN{1, 2, 3, 3, 9}
	a.Links = []Link{
		{From: 0, To: 1, LatencyMS: 10, Planes: PlaneToDst},
		{From: 1, To: 2, LatencyMS: 20, Planes: PlaneToDst},
	}
	a.PrefixCluster[netsim.Prefix(100)] = 0
	a.PrefixAS[netsim.Prefix(100)] = 1
	a.PrefixAS[netsim.Prefix(777)] = 9 // the hidden destination's origin
	return a
}

func cids(ids ...int32) []cluster.ClusterID {
	out := make([]cluster.ClusterID, len(ids))
	for i, id := range ids {
		out[i] = cluster.ClusterID(id)
	}
	return out
}

func TestFoldPathsAddsStructure(t *testing.T) {
	a := pathTestAtlas()
	dst := netsim.Prefix(777)
	st := FoldPaths(a, []ObservedPath{{
		Dst:      dst,
		Clusters: cids(1, 2, 4),
		LinkMS:   []float64{5, 7},
	}})
	if st.PathsFolded != 1 || st.PathsSkipped != 0 {
		t.Fatalf("stats %+v", st)
	}
	// 1->2 was already measured; 2->4 is new, and since cluster 4 sits in
	// the destination's origin AS, the reverse 4->2 folds too.
	if st.MeasuredLinks != 1 || st.NewLinks != 2 {
		t.Fatalf("stats %+v, want 1 measured + 2 new (fwd + access reversal)", st)
	}
	li := a.LinkAt(2, 4)
	if li < 0 {
		t.Fatal("folded link 2->4 missing")
	}
	l := a.Links[li]
	if l.Planes != PlaneToDst|PlaneFromSrc {
		t.Fatalf("folded link planes %#x, want both (crowd-corroborated = vantage-point grade)", l.Planes)
	}
	if l.LatencyMS != 7 {
		t.Fatalf("folded latency %v, want the agreed estimate 7", l.LatencyMS)
	}
	if a.LinkAt(4, 2) < 0 {
		t.Fatal("access-tail reversal 4->2 missing")
	}
	if a.ObservedLinks[LinkKey(2, 4)] != ObservedTTLDays {
		t.Fatalf("observed TTL %d, want %d", a.ObservedLinks[LinkKey(2, 4)], ObservedTTLDays)
	}
	if _, ok := a.ObservedLinks[LinkKey(1, 2)]; ok {
		t.Fatal("measured link must not enter the observed table")
	}
	// The destination learned its attachment from the tail's last cluster.
	if got := a.PrefixCluster[dst]; got != 4 {
		t.Fatalf("attachment %d, want 4", got)
	}
	if a.ObservedAttach[dst] != ObservedTTLDays {
		t.Fatalf("attachment TTL %d, want %d", a.ObservedAttach[dst], ObservedTTLDays)
	}
	// The measured link's annotation is untouched.
	if got := a.Links[a.LinkAt(1, 2)].LatencyMS; got != 20 {
		t.Fatalf("measured link latency %v, want untouched 20", got)
	}
}

func TestFoldPathsSkipsInvalid(t *testing.T) {
	a := pathTestAtlas()
	st := FoldPaths(a, []ObservedPath{
		{Dst: 777, Clusters: cids(1, 99), LinkMS: []float64{1}},      // outside registry
		{Dst: 777, Clusters: cids(1), LinkMS: nil},                   // too short
		{Dst: 777, Clusters: cids(1, 2, 1), LinkMS: []float64{1, 1}}, // loop
		{Dst: 777, Clusters: cids(1, 2), LinkMS: []float64{1, 2}},    // mismatched linkMS
	})
	if st.PathsFolded != 0 || st.PathsSkipped != 4 || st.NewLinks != 0 || st.NewAttach != 0 {
		t.Fatalf("stats %+v, want everything skipped", st)
	}
}

func TestCarryFoldedPathsDecayAndGraduation(t *testing.T) {
	day0 := pathTestAtlas()
	dst := netsim.Prefix(777)
	FoldPaths(day0, []ObservedPath{{Dst: dst, Clusters: cids(2, 4), LinkMS: []float64{3}}})

	// Roll 1, no renewed agreement: the link and attachment carry with one
	// less lifetime roll.
	day1 := pathTestAtlas()
	day1.Day = 5
	carried, dropped := CarryFoldedPaths(day1, day0)
	if carried != 3 || dropped != 0 { // fwd link + access reversal + attachment
		t.Fatalf("roll 1: carried %d dropped %d, want 3/0", carried, dropped)
	}
	if day1.LinkAt(2, 4) < 0 || day1.ObservedLinks[LinkKey(2, 4)] != ObservedTTLDays-1 {
		t.Fatalf("roll 1: link not carried at TTL-1: %v", day1.ObservedLinks)
	}
	if day1.PrefixCluster[dst] != 4 || day1.ObservedAttach[dst] != ObservedTTLDays-1 {
		t.Fatalf("roll 1: attachment not carried: %v %v", day1.PrefixCluster[dst], day1.ObservedAttach[dst])
	}

	// Roll 2, still unsupported: everything expires, and the diff against
	// roll 1 ships the deletions to delta-following clients.
	day2 := pathTestAtlas()
	day2.Day = 6
	carried, dropped = CarryFoldedPaths(day2, day1)
	if carried != 0 || dropped != 3 {
		t.Fatalf("roll 2: carried %d dropped %d, want 0/3", carried, dropped)
	}
	if day2.LinkAt(2, 4) >= 0 {
		t.Fatal("roll 2: expired link survived")
	}
	if _, ok := day2.PrefixCluster[dst]; ok {
		t.Fatal("roll 2: expired attachment survived")
	}
	d := Diff(day1, day2)
	wantDel := LinkKey(2, 4)
	foundLink, foundAttach := false, false
	for _, k := range d.DelLinks {
		if k == wantDel {
			foundLink = true
		}
	}
	for _, k := range d.DelPrefixCluster {
		if netsim.Prefix(k) == dst {
			foundAttach = true
		}
	}
	if !foundLink || !foundAttach {
		t.Fatalf("expiry must ship deletions: %+v / %+v", d.DelLinks, d.DelPrefixCluster)
	}

	// Graduation: a campaign that measures the link itself takes over and
	// the observed entry disappears without dropping the link.
	day1b := pathTestAtlas()
	day1b.Day = 5
	day1b.Links = append(day1b.Links, Link{From: 2, To: 4, LatencyMS: 4, Planes: PlaneToDst})
	carried, _ = CarryFoldedPaths(day1b, day0)
	if _, ok := day1b.ObservedLinks[LinkKey(2, 4)]; ok {
		t.Fatal("measured link must graduate out of the observed table")
	}
	if day1b.Links[day1b.LinkAt(2, 4)].LatencyMS != 4 {
		t.Fatal("graduated link must keep the measured annotation")
	}
	_ = carried
}

func TestFoldRenewalResetsTTL(t *testing.T) {
	day0 := pathTestAtlas()
	dst := netsim.Prefix(777)
	p := []ObservedPath{{Dst: dst, Clusters: cids(2, 4), LinkMS: []float64{3}}}
	FoldPaths(day0, p)

	day1 := pathTestAtlas()
	day1.Day = 5
	CarryFoldedPaths(day1, day0)
	// Today's snapshot re-agrees on the tail: the fold refreshes the
	// carried link back to full lifetime.
	st := FoldPaths(day1, p)
	if st.RefreshedLinks == 0 {
		t.Fatalf("stats %+v, want a refreshed link", st)
	}
	if day1.ObservedLinks[LinkKey(2, 4)] != ObservedTTLDays {
		t.Fatalf("TTL %d, want reset to %d", day1.ObservedLinks[LinkKey(2, 4)], ObservedTTLDays)
	}
	if day1.ObservedAttach[dst] != ObservedTTLDays {
		t.Fatalf("attachment TTL %d, want reset to %d", day1.ObservedAttach[dst], ObservedTTLDays)
	}
}

func TestCodecRoundTripsObservedStructure(t *testing.T) {
	a := pathTestAtlas()
	FoldPaths(a, []ObservedPath{{Dst: 777, Clusters: cids(1, 2, 4), LinkMS: []float64{5, 7}}})
	a.IfaceCluster[netsim.Prefix(321)] = 2
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ObservedLinks[LinkKey(2, 4)] != ObservedTTLDays {
		t.Fatalf("observed link TTL lost: %v", got.ObservedLinks)
	}
	if got.ObservedAttach[netsim.Prefix(777)] != ObservedTTLDays {
		t.Fatalf("observed attachment TTL lost: %v", got.ObservedAttach)
	}
	if got.IfaceCluster[netsim.Prefix(321)] != 2 {
		t.Fatalf("iface cluster lost: %v", got.IfaceCluster)
	}
}

func TestDecodeRejectsForgedObservedTTL(t *testing.T) {
	a := pathTestAtlas()
	a.ObservedLinks[LinkKey(0, 1)] = ObservedTTLDays + 7 // immortal structure
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(&buf); err == nil || !strings.Contains(err.Error(), "lifetime") {
		t.Fatalf("err %v, want observed-lifetime rejection", err)
	}
}

func TestDeltaShipsClusterGrowthAndIfaceClusters(t *testing.T) {
	old := pathTestAtlas()
	next := pathTestAtlas()
	next.Day = 5
	next.NumClusters = 7
	next.ClusterAS = append(next.ClusterAS, 11, 12)
	next.Links = append(next.Links, Link{From: 5, To: 6, LatencyMS: 2, Planes: PlaneToDst})
	next.PrefixCluster[netsim.Prefix(888)] = 6
	next.IfaceCluster[netsim.Prefix(432)] = 5

	d := Diff(old, next)
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := DecodeDelta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := old.Clone()
	if err := got.Apply(d2); err != nil {
		t.Fatal(err)
	}
	if got.NumClusters != 7 || len(got.ClusterAS) != 7 || got.ClusterAS[6] != 12 {
		t.Fatalf("cluster growth did not apply: %d %v", got.NumClusters, got.ClusterAS)
	}
	if got.LinkAt(5, 6) < 0 {
		t.Fatal("link into grown cluster space missing after apply")
	}
	if got.PrefixCluster[netsim.Prefix(888)] != 6 {
		t.Fatalf("new attachment missing: %v", got.PrefixCluster)
	}
	if got.IfaceCluster[netsim.Prefix(432)] != 5 {
		t.Fatalf("iface mapping missing: %v", got.IfaceCluster)
	}
}

func TestApplyRejectsOutOfSpaceAttachment(t *testing.T) {
	a := pathTestAtlas()
	d := &Delta{
		FromDay: a.Day, ToDay: a.Day + 1,
		UpLoss:          map[uint64]float32{},
		UpAdjust:        map[netsim.Prefix]float32{},
		UpPrefixCluster: map[netsim.Prefix]cluster.ClusterID{netsim.Prefix(888): 42},
		UpIfaceCluster:  map[netsim.Prefix]cluster.ClusterID{netsim.Prefix(432): 42},
	}
	if err := a.Apply(d); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.PrefixCluster[netsim.Prefix(888)]; ok {
		t.Fatal("attachment outside the cluster space must not apply")
	}
	if _, ok := a.IfaceCluster[netsim.Prefix(432)]; ok {
		t.Fatal("iface mapping outside the cluster space must not apply")
	}
}
