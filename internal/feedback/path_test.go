package feedback

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"inano/internal/cluster"
	"inano/internal/netsim"
)

// mapResolver builds a ClusterizeHops resolver from an explicit
// /24 -> cluster table.
func mapResolver(m map[netsim.Prefix]int32) func(netsim.Prefix) (int32, bool) {
	return func(p netsim.Prefix) (int32, bool) {
		c, ok := m[p]
		return c, ok
	}
}

// hop builds a responsive hop in prefix p with the given RTT.
func hop(p netsim.Prefix, rtt float64) Hop { return Hop{IP: p.HostIP(), RTTMS: rtt} }

func TestClusterizeHopsBasic(t *testing.T) {
	dst := netsim.Prefix(900)
	res := mapResolver(map[netsim.Prefix]int32{10: 1, 11: 2, 12: 3})
	hops := []Hop{hop(10, 10), hop(11, 14), hop(12, 20), hop(dst, 24)}
	path, linkMS, err := ClusterizeHops(hops, dst, res)
	if err != nil {
		t.Fatal(err)
	}
	want := []cluster.ClusterID{1, 2, 3}
	if !reflect.DeepEqual(path, want) {
		t.Fatalf("path %v, want %v", path, want)
	}
	// (14-10)/2 and (20-14)/2: one-way RTT-delta estimates; the
	// destination host hop contributes no step.
	if len(linkMS) != 2 || linkMS[0] != 2 || linkMS[1] != 3 {
		t.Fatalf("linkMS %v, want [2 3]", linkMS)
	}
}

func TestClusterizeHopsCollapsesRunsAndClampsNegatives(t *testing.T) {
	dst := netsim.Prefix(900)
	res := mapResolver(map[netsim.Prefix]int32{10: 1, 11: 1, 12: 2})
	// Two hops in cluster 1 collapse; the RTT delta into cluster 2 is
	// negative (reverse-path asymmetry) and must clamp, not go negative.
	hops := []Hop{hop(10, 10), hop(11, 30), hop(12, 8)}
	path, linkMS, err := ClusterizeHops(hops, dst, res)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(path, []cluster.ClusterID{1, 2}) {
		t.Fatalf("path %v", path)
	}
	if len(linkMS) != 1 || linkMS[0] != 0.1 {
		t.Fatalf("linkMS %v, want clamped 0.1", linkMS)
	}
}

func TestClusterizeHopsRejectsUnmappable(t *testing.T) {
	dst := netsim.Prefix(900)
	res := mapResolver(map[netsim.Prefix]int32{10: 1, 12: 3})
	hops := []Hop{hop(10, 10), hop(11, 14), hop(12, 20)}
	if _, _, err := ClusterizeHops(hops, dst, res); !errors.Is(err, ErrUnmappableHop) {
		t.Fatalf("err %v, want ErrUnmappableHop", err)
	}
}

func TestClusterizeHopsRejectsLoop(t *testing.T) {
	dst := netsim.Prefix(900)
	res := mapResolver(map[netsim.Prefix]int32{10: 1, 11: 2, 12: 1})
	hops := []Hop{hop(10, 10), hop(11, 14), hop(12, 20)}
	if _, _, err := ClusterizeHops(hops, dst, res); !errors.Is(err, ErrLoopingPath) {
		t.Fatalf("err %v, want ErrLoopingPath", err)
	}
}

func TestClusterizeHopsGapKeepsDestinationTail(t *testing.T) {
	dst := netsim.Prefix(900)
	// Everything before the '*' — including an unmappable hop — is
	// ignored; only the contiguous destination-side tail counts.
	res := mapResolver(map[netsim.Prefix]int32{11: 2, 12: 3})
	hops := []Hop{hop(77, 5), {IP: 0}, hop(11, 14), hop(12, 20)}
	path, _, err := ClusterizeHops(hops, dst, res)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(path, []cluster.ClusterID{2, 3}) {
		t.Fatalf("path %v, want tail after the gap", path)
	}
}

func TestClusterizeHopsShortTailIsNotAnError(t *testing.T) {
	dst := netsim.Prefix(900)
	res := mapResolver(map[netsim.Prefix]int32{11: 2})
	path, linkMS, err := ClusterizeHops([]Hop{hop(11, 14), hop(dst, 20)}, dst, res)
	if err != nil || path != nil || linkMS != nil {
		t.Fatalf("short tail: path=%v linkMS=%v err=%v, want all zero", path, linkMS, err)
	}
}

func TestClusterizeHopsCapsTailLength(t *testing.T) {
	dst := netsim.Prefix(900)
	m := make(map[netsim.Prefix]int32)
	var hops []Hop
	for i := 0; i < MaxPathTailClusters+5; i++ {
		p := netsim.Prefix(100 + i)
		m[p] = int32(i)
		hops = append(hops, hop(p, float64(i)))
	}
	path, linkMS, err := ClusterizeHops(hops, dst, mapResolver(m))
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != MaxPathTailClusters || len(linkMS) != MaxPathTailClusters-1 {
		t.Fatalf("len(path)=%d len(linkMS)=%d, want cap %d", len(path), len(linkMS), MaxPathTailClusters)
	}
	if path[len(path)-1] != cluster.ClusterID(MaxPathTailClusters+4) {
		t.Fatalf("cap must keep the destination end, got tail end %d", path[len(path)-1])
	}
}

func pathOf(ids ...int32) []cluster.ClusterID {
	out := make([]cluster.ClusterID, len(ids))
	for i, id := range ids {
		out[i] = cluster.ClusterID(id)
	}
	return out
}

func onesMS(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func TestAgreedPathsSingleReporterNeverShips(t *testing.T) {
	g := NewAggregator()
	dst := netsim.Prefix(500)
	// One reporter, re-reporting many times (and however many source
	// addresses it rotates through, the ingest resolves them to the same
	// source cluster): still one voice.
	for i := 0; i < 10; i++ {
		g.RecordPath(7, dst, pathOf(1, 2, 3), onesMS(2))
	}
	snap := g.Snapshot(0)
	if len(snap.Paths) != 1 {
		t.Fatalf("want the voted tail recorded for observability, got %+v", snap.Paths)
	}
	for _, min := range []int{0, 1, 2, 3} {
		if got := snap.AgreedPaths(min); len(got) != 0 {
			t.Fatalf("minReporters=%d shipped %d paths from a single reporter", min, len(got))
		}
	}
}

func TestAgreedPathsRotationBuysNoVotes(t *testing.T) {
	g := NewAggregator()
	dst := netsim.Prefix(500)
	// Two honest reporters agree on the tail; a third party rotating
	// "identities" that all resolve to one source cluster replaces its own
	// slot each time and never becomes a second voice for its own tail.
	g.RecordPath(1, dst, pathOf(10, 11, 12), onesMS(2))
	g.RecordPath(2, dst, pathOf(20, 11, 12), onesMS(2))
	for i := 0; i < 5; i++ {
		g.RecordPath(9, dst, pathOf(30, 31, 12), onesMS(2))
	}
	snap := g.Snapshot(0)
	agreed := snap.AgreedPaths(2)
	if len(agreed) != 1 {
		t.Fatalf("agreed %v", agreed)
	}
	if !reflect.DeepEqual(agreed[0].Clusters, pathOf(11, 12)) {
		t.Fatalf("agreed tail %v, want the two honest reporters' [11 12]", agreed[0].Clusters)
	}
}

func TestAgreedPathsSuffixVotingAndTrim(t *testing.T) {
	g := NewAggregator()
	dst := netsim.Prefix(500)
	// Three reporters share [5 6 7]; two of them also share the deeper
	// [4 5 6 7]. minReporters=3 trims to the triple-agreed suffix.
	g.RecordPath(1, dst, pathOf(1, 4, 5, 6, 7), onesMS(4))
	g.RecordPath(2, dst, pathOf(2, 4, 5, 6, 7), onesMS(4))
	g.RecordPath(3, dst, pathOf(3, 9, 5, 6, 7), onesMS(4))
	snap := g.Snapshot(0)
	if len(snap.Paths) != 1 {
		t.Fatalf("paths %+v", snap.Paths)
	}
	three := snap.AgreedPaths(3)
	if len(three) != 1 || !reflect.DeepEqual(three[0].Clusters, pathOf(5, 6, 7)) {
		t.Fatalf("minReporters=3: %+v", three)
	}
	two := snap.AgreedPaths(2)
	if len(two) != 1 || !reflect.DeepEqual(two[0].Clusters, pathOf(4, 5, 6, 7)) {
		t.Fatalf("minReporters=2: %+v", two)
	}
}

func TestAgreedPathsSingleLiarCannotShipFabrication(t *testing.T) {
	g := NewAggregator()
	dst := netsim.Prefix(500)
	g.RecordPath(1, dst, pathOf(5, 6, 7), onesMS(2))
	g.RecordPath(2, dst, pathOf(5, 6, 7), onesMS(2))
	g.RecordPath(3, dst, pathOf(8, 6, 7), onesMS(2))
	// The liar invents a tail of real-looking clusters.
	g.RecordPath(99, dst, pathOf(40, 41, 42), onesMS(2))
	agreed := g.Snapshot(0).AgreedPaths(2)
	if len(agreed) != 1 {
		t.Fatalf("agreed %+v", agreed)
	}
	for _, c := range agreed[0].Clusters {
		if c >= 40 && c <= 42 {
			t.Fatalf("fabricated cluster %d shipped: %+v", c, agreed[0])
		}
	}
	if !reflect.DeepEqual(agreed[0].Clusters, pathOf(5, 6, 7)) {
		t.Fatalf("agreed tail %v, want the honest majority's", agreed[0].Clusters)
	}
}

func TestRecordPathRejectsMalformed(t *testing.T) {
	g := NewAggregator()
	dst := netsim.Prefix(500)
	g.RecordPath(1, dst, pathOf(5), nil)             // too short
	g.RecordPath(1, dst, pathOf(5, 6), onesMS(5))    // mismatched linkMS
	g.RecordPath(1, dst, pathOf(5, 6, 5), onesMS(2)) // loop
	g.RecordPath(1, dst, pathOf(-1, 6), onesMS(1))   // negative cluster
	if st := g.Stats(); st.Paths != 0 {
		t.Fatalf("malformed paths stored: %+v", st)
	}
}

func TestPathStalenessExcludesOldReporters(t *testing.T) {
	g := NewAggregator()
	now := time.Unix(1000000, 0)
	g.nowFn = func() time.Time { return now }
	dst := netsim.Prefix(500)
	g.RecordPath(1, dst, pathOf(5, 6, 7), onesMS(2))
	g.RecordPath(2, dst, pathOf(5, 6, 7), onesMS(2))
	if agreed := g.Snapshot(0).AgreedPaths(2); len(agreed) != 1 {
		t.Fatalf("fresh: %+v", agreed)
	}
	now = now.Add(25 * time.Hour)
	g.RecordPath(2, dst, pathOf(5, 6, 7), onesMS(2))
	if agreed := g.Snapshot(0).AgreedPaths(2); len(agreed) != 0 {
		t.Fatalf("reporter 1 went stale, agreement must drop below 2: %+v", agreed)
	}
	// Scalar re-reports must not keep an obsolete path looking fresh:
	// reporter 1 keeps reporting residuals, but its hop path (recorded
	// 25 hours ago) stays stale.
	g.Record(1, dst, 5)
	snap := g.Snapshot(0)
	if agreed := snap.AgreedPaths(2); len(agreed) != 0 {
		t.Fatalf("a residual-only re-report refreshed a stale path: %+v", agreed)
	}
	if len(snap.Prefixes) != 1 || snap.Prefixes[0].Reporters != 1 {
		t.Fatalf("the fresh residual itself must still aggregate: %+v", snap.Prefixes)
	}
}

func TestAgreedPathsSkipsMalformedSnapshotEntries(t *testing.T) {
	// Snapshots come off disk; truncated or hand-edited entries must be
	// skipped, not panic inano-build.
	snap := ObservationSnapshot{Paths: []AggregatedPath{
		{Prefix: 1, Clusters: pathOf(1, 2, 3), LinkMS: []float64{1, 2}, LinkReporters: []int{3}},
		{Prefix: 2, Clusters: pathOf(1), LinkMS: nil, LinkReporters: nil},
		{Prefix: 3, Clusters: pathOf(1, 2), LinkMS: []float64{1, 2, 3}, LinkReporters: []int{3, 3, 3}},
		{Prefix: 4, Clusters: pathOf(8, 9), LinkMS: []float64{1}, LinkReporters: []int{3}}, // well-formed
	}}
	agreed := snap.AgreedPaths(2)
	if len(agreed) != 1 || agreed[0].Dst != 4 {
		t.Fatalf("agreed %+v, want only the well-formed entry", agreed)
	}
}

func TestSnapshotPathsSurviveDiskRoundTrip(t *testing.T) {
	g := NewAggregator()
	dst := netsim.Prefix(500)
	g.RecordPath(1, dst, pathOf(5, 6, 7), []float64{1.5, 2.5})
	g.RecordPath(2, dst, pathOf(5, 6, 7), []float64{2.5, 3.5})
	snap := g.Snapshot(3)
	path := filepath.Join(t.TempDir(), "obs.json")
	if err := SaveSnapshot(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Paths, snap.Paths) {
		t.Fatalf("paths did not survive the round trip:\n%+v\n%+v", got.Paths, snap.Paths)
	}
	agreed := got.AgreedPaths(2)
	if len(agreed) != 1 || !reflect.DeepEqual(agreed[0].Clusters, pathOf(5, 6, 7)) {
		t.Fatalf("agreed from disk: %+v", agreed)
	}
	if agreed[0].LinkMS[0] != 2 || agreed[0].LinkMS[1] != 3 {
		t.Fatalf("medianized linkMS: %+v", agreed[0].LinkMS)
	}
	_ = os.Remove(path)
}
