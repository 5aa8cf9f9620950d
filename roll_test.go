package inano

import (
	"bytes"
	"context"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"inano/internal/atlas"
	"inano/internal/cluster"
	"inano/internal/core"
	"inano/sim"
)

// dayChain builds days 0..n of one world over chained cluster IDs, each
// atlas through its codec (as a client would hold it), with the encoded
// delta from every day to the next.
func dayChain(t testing.TB, seed int64, n int) (w *sim.World, vps []Prefix, days []*atlas.Atlas, deltas [][]byte) {
	t.Helper()
	return dayChainAt(t, sim.Tiny, seed, n)
}

// dayChainAt is dayChain over a world of the given scale.
func dayChainAt(t testing.TB, scale sim.Scale, seed int64, n int) (w *sim.World, vps []Prefix, days []*atlas.Atlas, deltas [][]byte) {
	t.Helper()
	w = sim.NewWorld(scale, seed)
	vps = w.VantagePoints(12)
	var cl *cluster.Clustering
	for d := 0; d <= n; d++ {
		c := w.Measure(sim.CampaignOptions{Day: d, VPs: vps, Targets: w.EdgePrefixes()})
		cl = c.Clusters(cl)
		var buf bytes.Buffer
		if err := c.BuildAtlasOver(cl).Encode(&buf); err != nil {
			t.Fatal(err)
		}
		a, err := atlas.Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		days = append(days, a)
		if d > 0 {
			deltas = append(deltas, encodeDelta(t, atlas.Diff(days[d-1], a)))
		}
	}
	return w, vps, days, deltas
}

// TestDeltaRollMatchesReference follows a chain of three deltas on a
// client and, after each, sweeps every (vantage point, edge prefix) pair
// against the reference: the map-form atlas with the same deltas applied
// by Atlas.Apply, under a plain engine. Every answer must be equal field
// for field — and the roll itself must never touch the map form: no
// Clone, no map Apply, no Compile.
func TestDeltaRollMatchesReference(t *testing.T) {
	w, vps, days, deltas := dayChain(t, 140, 3)
	c := FromAtlas(days[0])
	ref := days[0].Clone()
	for i, enc := range deltas {
		before := atlas.MapOpCounts()
		if err := c.ApplyDelta(bytes.NewReader(enc)); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		if after := atlas.MapOpCounts(); after != before {
			t.Fatalf("delta %d: the roll ran map-form operations: %+v -> %+v", i, before, after)
		}
		st, ok := c.LastRoll()
		if !ok || st.FromDay != i || st.ToDay != i+1 || st.Duration <= 0 {
			t.Fatalf("delta %d: LastRoll = %+v, %v", i, st, ok)
		}
		if i == 0 && st.LinksChanged() == 0 && st.TuplesAdded+st.TuplesRemoved == 0 {
			t.Fatalf("a day of churn changed nothing: %+v", st)
		}

		d, err := atlas.DecodeDelta(bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Apply(d); err != nil {
			t.Fatal(err)
		}
		want := core.New(ref, core.INanoOptions())
		answered := 0
		for _, src := range vps {
			for _, dst := range w.EdgePrefixes() {
				got, exp := queryPair(c, src, dst), want.Query(src, dst)
				if !reflect.DeepEqual(got, exp) {
					t.Fatalf("after delta %d, %v -> %v:\n client    %+v\n reference %+v", i, src, dst, got, exp)
				}
				if got.Found {
					answered++
				}
			}
		}
		if answered == 0 {
			t.Fatalf("after delta %d the sweep answered nothing", i)
		}
	}
}

// TestApplyDeltaRefusesWrongBase: a delta applies only to the atlas it was
// coded against. One diffed against an atlas of the same day that differs
// in a single 3-tuple is refused by name, and the client serves on, on the
// day it had; the delta diffed against its own atlas then applies.
func TestApplyDeltaRefusesWrongBase(t *testing.T) {
	_, vps, days, deltas := dayChain(t, 145, 1)
	other := days[0].Clone()
	for k := range other.Tuples {
		delete(other.Tuples, k)
		other.Tuples[k^1] = true
		break
	}
	c := FromAtlas(days[0])
	before := queryPair(c, vps[0], vps[1])
	err := c.ApplyDelta(bytes.NewReader(encodeDelta(t, atlas.Diff(other, days[1]))))
	if !errors.Is(err, atlas.ErrDeltaBase) {
		t.Fatalf("a delta over another day-0 atlas: %v", err)
	}
	if _, ok := c.LastRoll(); ok || c.Snapshot().Day() != 0 || !reflect.DeepEqual(queryPair(c, vps[0], vps[1]), before) {
		t.Fatal("a refused delta changed what the client serves")
	}
	mustApply(t, c, deltas[0])
}

// TestApplyDeltaRefusesOtherDay: the base a delta names is the one check of
// which atlas it fits, the day included. A day-0 client given the day 1->2
// delta, and a day-1 client given the day 0->1 delta a second time, are
// both refused with ErrDeltaBase, and each keeps serving its day.
func TestApplyDeltaRefusesOtherDay(t *testing.T) {
	_, vps, days, deltas := dayChain(t, 1, 2)
	day0, day1 := FromAtlas(days[0]), FromAtlas(days[0])
	mustApply(t, day1, deltas[0])
	for _, tc := range []struct {
		name  string
		c     *Client
		delta []byte
		day   int
	}{
		{"a day-0 client given the day 1->2 delta", day0, deltas[1], 0},
		{"a day-1 client given the day 0->1 delta again", day1, deltas[0], 1},
	} {
		before := queryPair(tc.c, vps[0], vps[1])
		if err := tc.c.ApplyDelta(bytes.NewReader(tc.delta)); !errors.Is(err, atlas.ErrDeltaBase) {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.c.Snapshot().Day() != tc.day || !reflect.DeepEqual(queryPair(tc.c, vps[0], vps[1]), before) {
			t.Fatalf("%s: the refused delta changed what the client serves", tc.name)
		}
	}
}

// TestWireGrowthSkipsLocalClusters is the regression test for a day's new
// clusters landing on a client's local ones. A traceroute merge appends
// local clusters past the shipped count; the builder, which never saw
// them, numbers the day's new clusters from that same count. The roll must
// put the new ones in there, with the builder's ASes, and move the local
// clusters up past them. The client's own record of them, an index past
// the shipped count, then names the moved clusters as it stands, so a
// merge of the same traceroutes finds every one of them again.
func TestWireGrowthSkipsLocalClusters(t *testing.T) {
	w, vps, days, deltas := dayChain(t, 1, 1)
	c := FromAtlas(days[0])
	trs := realTraceroutes(&fixture{w: w, vps: vps, targets: w.EdgePrefixes()}, vps[0], 40)
	c.AddTraceroutes(trs)
	shipped, next := int32(days[0].NumClusters), int32(days[1].NumClusters)
	merged := c.Snapshot().e.Flat()
	if merged.NumClusters == shipped || next == shipped {
		t.Fatalf("nothing to collide: %d local clusters, %d grown", merged.NumClusters-shipped, next-shipped)
	}
	localAS := slices.Clone(merged.ClusterAS[shipped:])
	localIDs := maps.Clone(c.localCluster)
	mustApply(t, c, deltas[0])
	rolled := c.Snapshot().e.Flat()
	if !slices.Equal(rolled.ClusterAS[shipped:next], days[1].ClusterAS[shipped:]) {
		t.Fatalf("the grown clusters carry ASes %v, the builder's are %v", rolled.ClusterAS[shipped:next], days[1].ClusterAS[shipped:])
	}
	if !slices.Equal(rolled.ClusterAS[next:], localAS) {
		t.Fatalf("the local clusters carry ASes %v after the roll, %v before", rolled.ClusterAS[next:], localAS)
	}
	if !maps.Equal(c.localCluster, localIDs) {
		t.Fatal("the roll rewrote the client's record of its local clusters")
	}
	for p, k := range c.localCluster {
		id := rolled.ShippedClusters() + k
		if rolled.ClusterAS[id] != localAS[k] {
			t.Fatalf("local cluster %d of %v is cluster %d of AS %d, it was of AS %d", k, p, id, rolled.ClusterAS[id], localAS[k])
		}
		if got, ok := rolled.ClusterOf(p); ok && got != cluster.ClusterID(id) {
			t.Fatalf("%v attaches to cluster %d, its local cluster is %d", p, got, id)
		}
	}
	// Every link into or out of a local cluster moved with it.
	up := func(c cluster.ClusterID) cluster.ClusterID {
		if int32(c) >= shipped {
			return c + cluster.ClusterID(next-shipped)
		}
		return c
	}
	moved := 0
	for _, l := range merged.Inflate().Links {
		if int32(l.From) < shipped && int32(l.To) < shipped {
			continue
		}
		moved++
		if got, ok := rolled.LinkAt(up(l.From), up(l.To)); !ok || got.LatencyMS != l.LatencyMS || got.Planes != l.Planes {
			t.Fatalf("local link %d->%d is %+v (%v) after the roll", l.From, l.To, got, ok)
		}
	}
	if moved == 0 {
		t.Fatal("no link touched a local cluster")
	}
	c.AddTraceroutes(trs)
	if again := c.Snapshot().e.Flat(); again.NumClusters != rolled.NumClusters || !maps.Equal(c.localCluster, localIDs) {
		t.Fatalf("the same traceroutes merged again made %d local clusters more", again.NumClusters-rolled.NumClusters)
	}
}

// TestLocalMergeThenRollMatchesKeyedDelta: a client that merged its own
// traceroutes holds links and clusters the builder never shipped, and the
// day's delta is coded against the builder's atlas. Applied off the wire,
// indices and all, it makes the Flat — every field, the record of what is
// local included — and the RollStats that the keyed delta Diff returns
// makes applied in memory.
func TestLocalMergeThenRollMatchesKeyedDelta(t *testing.T) {
	w, vps, days, deltas := dayChain(t, 1, 1)
	f := &fixture{w: w, vps: vps, targets: w.EdgePrefixes()}
	c := FromAtlas(days[0])
	c.AddTraceroutes(realTraceroutes(f, vps[0], 40))
	c.AddTraceroutes(realTraceroutes(f, vps[1], 20))
	merged := c.Snapshot().e.Flat()
	if merged.ShippedClusters() == merged.NumClusters || merged.NumEdges() <= len(days[0].Links) {
		t.Fatal("the merges added no local cluster or link")
	}
	keyed, keyedSt, err := merged.Apply(atlas.Diff(days[0], days[1]))
	if err != nil {
		t.Fatal(err)
	}
	wire, err := atlas.DecodeDelta(bytes.NewReader(deltas[0]))
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := merged.Apply(wire)
	if err != nil {
		t.Fatal(err)
	}
	st.Duration, keyedSt.Duration = 0, 0
	if st != keyedSt || st.ClustersAdded == 0 || st.LinksRemoved+st.LinksRetagged == 0 {
		t.Fatalf("RollStats off the wire %+v, of the keyed delta %+v", st, keyedSt)
	}
	if !reflect.DeepEqual(got, keyed) {
		t.Fatal("the wire delta and the keyed delta make different Flats")
	}
	mustApply(t, c, deltas[0])
	if !reflect.DeepEqual(c.Snapshot().e.Flat(), keyed) {
		t.Fatal("the client's roll makes another Flat")
	}
	// The client can merge and roll on: the next merge finds its local
	// clusters where the roll moved them.
	c.AddTraceroutes(realTraceroutes(f, vps[0], 40))
}

// TestQueryDoesNotWaitForMutation parks a writer between having built the
// next engine and publishing it, writer mutex held, and requires every
// read path to return meanwhile — on the old day. A reader that shares any
// lock with writers hangs here until the test's own deadline.
func TestQueryDoesNotWaitForMutation(t *testing.T) {
	_, vps, days, deltas := dayChain(t, 141, 1)
	c := FromAtlas(days[0])
	src, dst := vps[0].HostIP(), vps[1].HostIP()

	parked, release := make(chan struct{}), make(chan struct{})
	c.beforePublish = func() {
		close(parked)
		<-release
	}
	applied := make(chan error, 1)
	go func() { applied <- c.ApplyDelta(bytes.NewReader(deltas[0])) }()
	<-parked

	read := make(chan int, 1)
	go func() {
		snap := c.Snapshot()
		c.Query(src, dst)
		snap.Query(context.Background(), vps[0], vps[1])
		c.CacheStats()
		c.LastRoll()
		snap.AtlasStats()
		read <- c.Snapshot().Day() + snap.Day()
	}()
	select {
	case day := <-read:
		if day != 0 {
			t.Errorf("readers saw day sum %d before the roll was published, want 0", day)
		}
	case <-time.After(10 * time.Second):
		t.Error("readers are waiting for a writer that has not published")
	}
	close(release)
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	if c.Snapshot().Day() != 1 {
		t.Fatalf("day %d after the roll", c.Snapshot().Day())
	}
}

// TestRollFreesTheMapping starts a client from an mmap'd flat file, rolls
// it, then unmaps the file: the new engine must own every byte it reads.
// An Apply that kept a slice of its input would fault here.
func TestRollFreesTheMapping(t *testing.T) {
	w, vps, days, deltas := dayChain(t, 142, 1)
	path := filepath.Join(t.TempDir(), "day0.flat")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := atlas.WriteFlat(f, atlas.Compile(days[0])); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ff, err := atlas.OpenFlat(path, true)
	if err != nil {
		t.Fatal(err)
	}
	c := FromFlat(ff.Flat)
	if err := c.ApplyDelta(bytes.NewReader(deltas[0])); err != nil {
		t.Fatal(err)
	}
	type answer struct {
		src, dst Prefix
		info     PathInfo
	}
	var mapped []answer
	for _, src := range vps {
		for _, dst := range w.EdgePrefixes() {
			mapped = append(mapped, answer{src, dst, queryPair(c, src, dst)})
		}
	}
	if err := ff.Close(); err != nil {
		t.Fatal(err)
	}
	// A fresh client over the same roll answers from a cold tree cache:
	// every table the engine reads is read again with the mapping gone.
	cold := FromFlatOptions(c.Snapshot().e.Flat(), core.INanoOptions())
	found := 0
	for _, a := range mapped {
		if got := queryPair(cold, a.src, a.dst); !reflect.DeepEqual(got, a.info) {
			t.Fatalf("%v -> %v changed once the mapping was closed:\n before %+v\n after  %+v", a.src, a.dst, a.info, got)
		}
		if a.info.Found {
			found++
		}
	}
	if found == 0 {
		t.Fatal("the sweep answered nothing")
	}
	if c.engine.Load().Flat().Inflate().Day != 1 {
		t.Fatal("Atlas() after the roll is not day 1")
	}
}

// TestCorrectionOnlyDeltaKeepsTreeCache: what an applied delta costs the
// warm tree cache follows from what it changed, not from who sent it. A
// delta that only sets corrections moves nothing route computation reads,
// so the trees stay; one that re-tags a single link drops them, and the
// warmer rebuilds them on the new engine.
func TestCorrectionOnlyDeltaKeepsTreeCache(t *testing.T) {
	_, vps, days, _ := dayChain(t, 143, 0)
	src, dst := vps[0], vps[1]
	// with returns a copy of a changed by edit: a delta is diffed against
	// the atlas it patches.
	with := func(a *atlas.Atlas, edit func(*atlas.Atlas)) *atlas.Atlas {
		b := a.Clone()
		edit(b)
		return b
	}
	corrected := with(days[0], func(a *atlas.Atlas) { a.GlobalAdjustMS[dst] = 12 })
	correction := encodeDelta(t, atlas.Diff(days[0], corrected))
	warmUp := func(c *Client) CacheStats {
		for _, d := range vps[1:] {
			queryPair(c, src, d)
		}
		return c.CacheStats()
	}

	c := FromAtlas(days[0])
	c.startWarm = func(func()) { t.Error("a delta that kept the tree cache started a warmer") }
	warm := warmUp(c)
	base := queryPair(c, src, dst)
	if warm.Len == 0 || !base.Found {
		t.Fatalf("nothing to keep warm: %+v, %v -> %v found %v", warm, src, dst, base.Found)
	}
	if err := c.ApplyDelta(bytes.NewReader(correction)); err != nil {
		t.Fatal(err)
	}
	if got := c.CacheStats(); got.Len != warm.Len || got.Builds != warm.Builds {
		t.Fatalf("a correction-only delta dropped the tree cache: %+v -> %+v", warm, got)
	}
	if got := queryPair(c, src, dst).RTTMS; !close2(got, base.RTTMS+12) {
		t.Fatalf("correction not served: RTT %v, want %v", got, base.RTTMS+12)
	}
	if st, ok := c.LastRoll(); !ok || st.FromDay != 0 || st.ToDay != 0 {
		t.Fatalf("LastRoll = %+v, %v after a same-day delta", st, ok)
	}

	// A re-tagged link drops them: once the warmer behind the publish is
	// done, every resident tree is one the new engine built (its counters
	// started from zero and count nothing else), and the answers are those
	// of a client that never had a cache.
	retagged := with(corrected, func(a *atlas.Atlas) { a.Links[0].Planes ^= atlas.PlaneFromSrc })
	wait := awaitWarm(c)
	mustApply(t, c, encodeDelta(t, atlas.Diff(corrected, retagged)))
	wait()
	if got := c.CacheStats(); got.Hits+got.Misses != 0 || got.Builds != uint64(got.Len) || got.Warmed != got.Builds || got.Len != warm.Len {
		t.Fatalf("a re-tagged link kept trees built over the old planes: %+v -> %+v", warm, got)
	}
	never := FromFlat(c.Snapshot().e.Flat())
	for _, d := range vps[1:] {
		if got, want := queryPair(c, src, d), queryPair(never, src, d); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v -> %v after the re-tag:\n warmed %+v\n cold   %+v", src, d, got, want)
		}
	}

	// The trees index the link table. An apply puts a table that was out
	// of order in order, so even a correction-only delta must not carry
	// trees across that.
	reversed := with(days[0], func(a *atlas.Atlas) { slices.Reverse(a.Links) })
	cr := FromAtlas(reversed)
	warmUp(cr)
	reversedCorrection := encodeDelta(t, atlas.Diff(reversed, with(reversed, func(a *atlas.Atlas) { a.GlobalAdjustMS[dst] = 12 })))
	if err := cr.ApplyDelta(bytes.NewReader(reversedCorrection)); err != nil {
		t.Fatal(err)
	}
	cold := FromFlat(cr.Snapshot().e.Flat())
	for _, d := range vps[1:] {
		if got, want := queryPair(cr, src, d), queryPair(cold, src, d); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v -> %v answered off trees over the old link order:\n warm %+v\n cold %+v", src, d, got, want)
		}
	}
}

// BenchmarkPostRoll is the cold cliff behind a roll, where it can be
// profiled outside bench/: a Medium client warm on 64 popular destinations
// applies the day's delta, and the next 2 000 popular singles are timed —
// beside the warmer rebuilding yesterday's trees (Client.publish), and, as
// the roll was before it, with the warmer held back. reader-builds are the
// trees a query had to build itself, warmer-builds those the warmer got to
// first. Not a gate: post_roll_single_us is.
func BenchmarkPostRoll(b *testing.B) {
	const singles = 2000
	w, vps, days, deltas := dayChainAt(b, sim.Medium, 1, 1)
	popular, day0 := spread(w.EdgePrefixes(), 64), atlas.Compile(days[0])
	ask := func(c *Client, n int) {
		for i := 0; i < n; i++ {
			queryPair(c, vps[i%len(vps)], popular[i%len(popular)])
		}
	}
	for _, name := range []string{"warmer", "held"} {
		held := name == "held"
		b.Run(name, func(b *testing.B) {
			var reader, warmer uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := FromFlat(day0)
				wait := awaitWarm(c)
				if held {
					holdWarm(c)
				}
				ask(c, len(vps)*len(popular))
				mustApply(b, c, deltas[0])
				b.StartTimer()
				ask(c, singles)
				b.StopTimer()
				wait()
				st := c.CacheStats()
				reader, warmer = reader+st.Builds-st.Warmed, warmer+st.Warmed
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*singles), "ns/query")
			b.ReportMetric(float64(reader)/float64(b.N), "reader-builds")
			b.ReportMetric(float64(warmer)/float64(b.N), "warmer-builds")
		})
	}
}
