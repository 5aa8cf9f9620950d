package inano

import (
	"bytes"
	"context"
	"maps"
	"reflect"
	"testing"
	"time"

	"inano/internal/atlas"
	"inano/internal/feedback"
	"inano/internal/netsim"
	"inano/sim"
)

// TestAddTraceroutesAllUnresponsiveIsNoOp is the regression test for the
// no-op path: a batch of traceroutes whose hops are all unresponsive (zero
// IPs) must merge nothing — and must not rebuild the engine, so a daemon
// feeding failed measurements through this path never invalidates the
// warm tree cache.
func TestAddTraceroutesAllUnresponsiveIsNoOp(t *testing.T) {
	f := buildFixture(t, 130, 0)
	c := FromAtlas(f.a)
	engineBefore := c.engine.Load()
	clustersBefore := c.Snapshot().AtlasStats().Clusters

	trs := []LocalTraceroute{
		{Src: f.vps[0], Dst: f.targets[0], Hops: []TracerouteHop{{IP: 0}, {IP: 0}, {IP: 0}}},
		{Src: f.vps[1], Dst: f.targets[1], Hops: []TracerouteHop{{IP: 0}}},
		{Src: f.vps[2], Dst: f.targets[2]}, // no hops at all
	}
	if added := c.AddTraceroutes(trs); added != 0 {
		t.Fatalf("AddTraceroutes merged %d changes from all-unresponsive traceroutes, want 0", added)
	}
	if c.engine.Load() != engineBefore {
		t.Fatal("engine was rebuilt for a no-op merge")
	}
	if got := c.Snapshot().AtlasStats().Clusters; got != clustersBefore {
		t.Fatalf("cluster count changed %d -> %d on a no-op merge", clustersBefore, got)
	}

	// Empty input is equally a no-op.
	if added := c.AddTraceroutes(nil); added != 0 || c.engine.Load() != engineBefore {
		t.Fatal("nil traceroute batch must not touch the engine")
	}
}

// realTraceroutes measures a batch of traceroutes from src with the
// world's harness, converted to the client wire type.
func realTraceroutes(f *fixture, src Prefix, n int) []LocalTraceroute {
	meter := f.w.Measure(sim.CampaignOptions{Day: 0, VPs: nil, Targets: f.targets[:1]}).Meter()
	var trs []LocalTraceroute
	for k := 0; len(trs) < n; k++ {
		dst := f.targets[(k*7+1)%len(f.targets)]
		if dst == src {
			continue
		}
		mt := meter.Traceroute(src, dst)
		lt := LocalTraceroute{Src: src, Dst: dst}
		for _, h := range mt.Hops {
			lt.Hops = append(lt.Hops, TracerouteHop{IP: h.IP, RTTMS: h.RTTMS})
		}
		trs = append(trs, lt)
	}
	return trs
}

// TestAddTraceroutesIdempotent: merging the same measurements into an
// already-patched atlas must be a no-op — no engine rebuild, no
// cluster-count drift — so a client re-reporting yesterday's traceroutes
// never invalidates its warm tree cache.
func TestAddTraceroutesIdempotent(t *testing.T) {
	f := buildFixture(t, 131, 0)
	c := FromAtlas(f.a)
	trs := realTraceroutes(f, f.vps[0], 8)
	if added := c.AddTraceroutes(trs); added == 0 {
		t.Skip("world produced no mergeable traceroutes")
	}
	engineAfterFirst, clustersAfterFirst := c.engine.Load(), c.Snapshot().AtlasStats().Clusters
	if again := c.AddTraceroutes(trs); again != 0 {
		t.Fatalf("second merge of identical traceroutes added %d changes", again)
	}
	if c.engine.Load() != engineAfterFirst {
		t.Fatal("engine rebuilt for an idempotent merge")
	}
	if got := c.Snapshot().AtlasStats().Clusters; got != clustersAfterFirst {
		t.Fatalf("cluster count drifted %d -> %d", clustersAfterFirst, got)
	}
}

// TestAddTraceroutesDuplicateHops: interfaces repeating along a path
// (consecutive duplicate answers, several interfaces of one cluster) must
// never produce self-links.
func TestAddTraceroutesDuplicateHops(t *testing.T) {
	f := buildFixture(t, 132, 0)
	c := FromAtlas(f.a)
	trs := realTraceroutes(f, f.vps[0], 6)
	// Duplicate every responsive hop in place.
	for i := range trs {
		var dup []TracerouteHop
		for _, h := range trs[i].Hops {
			dup = append(dup, h)
			if h.IP != 0 {
				dup = append(dup, TracerouteHop{IP: h.IP, RTTMS: h.RTTMS + 0.3})
			}
		}
		trs[i].Hops = dup
	}
	c.AddTraceroutes(trs)
	for _, l := range c.engine.Load().Flat().Inflate().Links {
		if l.From == l.To {
			t.Fatalf("self-link merged: %+v", l)
		}
	}
}

// TestAddTraceroutesDecreasingRTT: hop RTTs decreasing along a path (a
// common artifact of asymmetric reverse paths) must clamp link latencies
// at the floor, never merge a negative or zero latency.
func TestAddTraceroutesDecreasingRTT(t *testing.T) {
	f := buildFixture(t, 133, 0)
	c := FromAtlas(f.a)
	trs := realTraceroutes(f, f.vps[0], 6)
	for i := range trs {
		// Reverse each traceroute's RTT sequence so deltas go negative.
		hops := trs[i].Hops
		for j, k := 0, len(hops)-1; j < k; j, k = j+1, k-1 {
			hops[j].RTTMS, hops[k].RTTMS = hops[k].RTTMS, hops[j].RTTMS
		}
	}
	c.AddTraceroutes(trs)
	for _, l := range c.engine.Load().Flat().Inflate().Links {
		if l.LatencyMS < 0.1 {
			t.Fatalf("link below latency floor: %+v", l)
		}
	}
}

// TestResidualOnlyMergeKeepsTreeCache: a corrective round that only
// revises residual corrections (links already merged) must not
// cold-start the warm prediction-tree cache — route computation is
// untouched, so the new engine adopts the old cache.
func TestResidualOnlyMergeKeepsTreeCache(t *testing.T) {
	f := buildFixture(t, 108, 0)
	c := FromAtlas(f.a)
	src := f.vps[0]
	trs := realTraceroutes(f, src, 6)
	if c.AddTraceroutes(trs) == 0 {
		t.Skip("world produced no mergeable traceroutes")
	}
	// Warm the cache.
	for _, dst := range f.vps[1:] {
		queryPair(c, src, dst)
	}
	warm := c.CacheStats()
	if warm.Len == 0 {
		t.Fatal("no trees cached after warming queries")
	}
	// The same paths re-measured with a prediction attached: structurally
	// a no-op, but the measured RTT teaches a residual.
	for i := range trs {
		info := queryPair(c, trs[i].Src, trs[i].Dst)
		trs[i].PredictedRTTMS = info.RTTMS + 1000 // force a large residual step
		trs[i].Predicted = true
	}
	added := c.AddTraceroutes(trs)
	if added == 0 {
		t.Skip("no residuals learned (no traceroute reached its destination)")
	}
	if got := c.CacheStats(); got.Len < warm.Len || got.Builds < warm.Builds {
		t.Fatalf("residual-only merge dropped the warm tree cache: %+v -> %+v", warm, got)
	}
	if len(c.engine.Load().Flat().Inflate().AdjustMS) == 0 {
		t.Fatal("no residual corrections recorded")
	}
}

// TestAddTraceroutesStaysFlat: a traceroute merge — structural or
// residual-only — never touches the map form (no Clone, no map Apply, no
// Compile), and what the client serves afterwards is, pair for pair, what
// the map path makes of the delta the merge emitted.
func TestAddTraceroutesStaysFlat(t *testing.T) {
	f := buildFixture(t, 108, 0)
	c := FromAtlas(f.a)
	trs := realTraceroutes(f, f.vps[0], 6)
	sweep := func(c *Client) []PathInfo {
		var out []PathInfo
		for _, src := range f.vps {
			for _, dst := range f.targets {
				out = append(out, queryPair(c, src, dst))
			}
		}
		return out
	}
	merge := func(name string, wantStructural bool) {
		t.Helper()
		base := c.engine.Load().Flat()
		d, structural, residual := feedback.Merge(base, maps.Clone(c.localCluster), trs)
		if (structural > 0) != wantStructural || structural+residual == 0 {
			t.Fatalf("%s merge counts %d structural, %d residual changes", name, structural, residual)
		}
		before := atlas.MapOpCounts()
		merged := c.AddTraceroutes(trs)
		if after := atlas.MapOpCounts(); after != before {
			t.Fatalf("%s merge ran map-form operations: %+v -> %+v", name, before, after)
		}
		if merged != structural+residual {
			t.Fatalf("%s merge reported %d changes, its delta %d", name, merged, structural+residual)
		}
		ref := base.Inflate()
		if err := ref.Apply(d); err != nil {
			t.Fatal(err)
		}
		got, want := sweep(c), sweep(FromFlat(atlas.Compile(ref)))
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s merge, pair %d:\n client   %+v\n map path %+v", name, i, got[i], want[i])
			}
		}
	}
	merge("structural", true)
	// The same paths again with a prediction attached: only residuals move.
	for i := range trs {
		info := queryPair(c, trs[i].Src, trs[i].Dst)
		trs[i].PredictedRTTMS, trs[i].Predicted = info.RTTMS+40, true
	}
	merge("residual-only", false)
}

// TestLastRollIgnoresTracerouteMerges: LastRoll is the last delta applied,
// not the last change to the atlas — a corrective round in the morning
// must not overwrite what last night's roll did.
func TestLastRollIgnoresTracerouteMerges(t *testing.T) {
	w, vps, days, deltas := dayChain(t, 144, 1)
	f := &fixture{w: w, vps: vps, targets: w.EdgePrefixes()}
	c := FromAtlas(days[0])
	if c.AddTraceroutes(realTraceroutes(f, vps[0], 6)) == 0 {
		t.Fatal("world produced no mergeable traceroutes")
	}
	if st, ok := c.LastRoll(); ok {
		t.Fatalf("a traceroute merge recorded itself as a roll: %+v", st)
	}
	if err := c.ApplyDelta(bytes.NewReader(deltas[0])); err != nil {
		t.Fatal(err)
	}
	roll, ok := c.LastRoll()
	if !ok || roll.ToDay != 1 {
		t.Fatalf("LastRoll = %+v, %v after the day 0->1 delta", roll, ok)
	}
	if c.AddTraceroutes(realTraceroutes(f, vps[1], 6)) == 0 {
		t.Fatal("world produced no mergeable traceroutes from the second vantage point")
	}
	if st, _ := c.LastRoll(); st != roll {
		t.Fatalf("a traceroute merge overwrote the last roll:\n was %+v\n now %+v", roll, st)
	}
}

// TestObserveAndCorrectClosesLoop drives the full client-side feedback
// loop against the simulator: observations of true RTTs are tracked,
// the corrective budget is spent on the worst-mispredicted destinations,
// and the served predictions for those destinations move toward the
// observed truth.
func TestObserveAndCorrectClosesLoop(t *testing.T) {
	f := buildFixture(t, 108, 0)
	c := FromAtlas(f.a)
	src := f.vps[0]
	meter := f.w.Measure(sim.CampaignOptions{Day: 0, VPs: nil, Targets: f.targets[:1]}).Meter()

	type workItem struct {
		dst  Prefix
		rtt  float64
		err0 float64
	}
	// The workload queries the other vantage points: bidirectionally
	// predictable destinations, so the RTT residual corrections apply
	// (client-side probes cannot conjure reverse paths toward this host,
	// §4.3.1's asymmetric contract).
	var work []workItem
	for _, dst := range f.vps[1:] {
		if dst == src {
			continue
		}
		rtt, ok := f.w.TrueRTT(0, src, dst)
		if !ok {
			continue
		}
		info := queryPair(c, src, dst)
		work = append(work, workItem{dst: dst, rtt: rtt, err0: feedback.RelErr(info.RTTMS, rtt, info.Found)})
		sample, err := c.ObserveRTT(context.Background(), c.Snapshot(), src, dst, rtt)
		if err != nil || sample.Err != work[len(work)-1].err0 {
			t.Fatalf("ObserveRTT error mismatch: %v vs %v", sample.Err, work[len(work)-1].err0)
		}
	}
	if len(work) < 8 {
		t.Skip("world too sparse for a feedback workload")
	}
	if got := c.FeedbackStats(); got.Entries == 0 || got.TotalSamples == 0 {
		t.Fatalf("tracker empty after observations: %+v", got)
	}

	round := c.NewCorrector(feedback.SimProber{Meter: meter}, CorrectorConfig{
		Budget:   8,
		MinError: 0.05,
		Cooldown: time.Hour,
	}).RunOnce(context.Background())
	if round.Probes == 0 {
		t.Fatal("no corrective probes issued")
	}
	if round.Merged == 0 {
		t.Fatal("corrective probes merged nothing")
	}

	before, after := 0.0, 0.0
	for _, w := range work {
		info := queryPair(c, src, w.dst)
		before += w.err0
		after += feedback.RelErr(info.RTTMS, w.rtt, info.Found)
	}
	if !(after < before) {
		t.Fatalf("mean error did not decrease: %.4f -> %.4f", before/float64(len(work)), after/float64(len(work)))
	}
}

// TestGlobalAdjustAppliesAndStacks: swarm-shipped corrections
// (GlobalAdjustMS, folded by the build from uploaded observations) shift
// served RTTs exactly once, survive the codec (unlike the local
// AdjustMS), and stack with a locally learned correction.
func TestGlobalAdjustAppliesAndStacks(t *testing.T) {
	f := buildFixture(t, 136, 0)
	c := FromAtlas(f.a)
	var src, dst Prefix
	var base float64
	found := false
	for _, s := range f.vps {
		for _, d := range f.vps {
			if s == d {
				continue
			}
			if info := queryPair(c, s, d); info.Found {
				src, dst, base, found = s, d, info.RTTMS, true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Skip("world has no predictable pair")
	}

	a := f.a.Clone()
	a.GlobalAdjustMS[dst] = 25
	c2 := FromAtlas(a)
	if got := queryPair(c2, src, dst).RTTMS; !close2(got, base+25) {
		t.Fatalf("global correction not applied: %v, want %v", got, base+25)
	}
	// The reverse query toward src must not absorb dst's correction
	// twice: only the forward leg of an answer carries its destination's
	// adjustment.
	if revBase := queryPair(c, dst, src).RTTMS; revBase > 0 {
		if got := queryPair(c2, dst, src).RTTMS; !close2(got, revBase) {
			t.Fatalf("reverse query absorbed dst correction: %v vs %v", got, revBase)
		}
	}

	// A local correction stacks on top of the shipped one.
	a2 := f.a.Clone()
	a2.GlobalAdjustMS[dst] = 25
	a2.AdjustMS[dst] = -10
	c3 := FromAtlas(a2)
	if got := queryPair(c3, src, dst).RTTMS; !close2(got, base+15) {
		t.Fatalf("corrections did not stack: %v, want %v", got, base+15)
	}

	// And unlike AdjustMS, the global dataset survives the codec.
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.engine.Load().Flat().Inflate().GlobalAdjustMS[dst]; got != 25 {
		t.Fatalf("global correction lost in the codec: %v", got)
	}
}

func close2(a, b float64) bool { d := a - b; return d < 0.01 && d > -0.01 }

// TestAdjustMSLocalOnly: the residual corrections are client-local state —
// they must survive Clone (the copy-on-write path) but never enter the
// encoded atlas.
func TestAdjustMSLocalOnly(t *testing.T) {
	f := buildFixture(t, 135, 0)
	a := f.a.Clone()
	a.AdjustMS[netsim.Prefix(42)] = 7
	if got := a.Clone().AdjustMS[netsim.Prefix(42)]; got != 7 {
		t.Fatalf("Clone dropped AdjustMS: %v", got)
	}
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.engine.Load().Flat().Inflate().AdjustMS) != 0 {
		t.Fatal("AdjustMS leaked through the codec")
	}
}
