package inano

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"inano/internal/atlas"
	"inano/internal/core"
	"inano/sim"
)

// The warmer behind a publish (Client.publish, core.Engine.Warm) under the
// startWarm hook: held back, run inline, parked for later, or run on a
// goroutine the test can wait for.

func holdWarm(c *Client) { c.startWarm = func(func()) {} }

func inlineWarm(c *Client) { c.startWarm = func(warm func()) { warm() } }

// parkWarm parks every warmer c would have started; next runs the oldest
// one still parked.
func parkWarm(c *Client) (next func()) {
	var parked []func()
	c.startWarm = func(warm func()) { parked = append(parked, warm) }
	return func() {
		warm := parked[0]
		parked = parked[1:]
		warm()
	}
}

// awaitWarm starts warmers as publish does and returns a wait for them.
func awaitWarm(c *Client) (wait func()) {
	var wg sync.WaitGroup
	c.startWarm = func(warm func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			warm()
		}()
	}
	return wg.Wait
}

func mustApply(t testing.TB, c *Client, delta []byte) {
	t.Helper()
	if err := c.ApplyDelta(bytes.NewReader(delta)); err != nil {
		t.Fatal(err)
	}
}

// spread picks n of ps at even strides.
func spread(ps []Prefix, n int) []Prefix {
	out := make([]Prefix, 0, n)
	for i := 0; i < n && i < len(ps); i++ {
		out = append(out, ps[i*len(ps)/n])
	}
	return out
}

// TestWarmRollMatchesUnwarmed is the differential: two clients warm the
// same 64 destinations and apply the same delta, one with the warmer
// running beside its readers, one with it held back. While the warmer runs
// and after it is done, every sampled pair answers the same on both, field
// for field; no key is built twice; and the warmer did build.
func TestWarmRollMatchesUnwarmed(t *testing.T) {
	scale := sim.Medium
	if testing.Short() {
		scale = sim.Tiny
	}
	w, vps, days, deltas := dayChainAt(t, scale, 150, 1)
	popular, others := spread(w.EdgePrefixes(), 64), spread(w.EdgePrefixes()[1:], 48)
	warmed, plain := FromAtlas(days[0]), FromAtlas(days[0])
	wait := awaitWarm(warmed)
	holdWarm(plain)
	for _, c := range []*Client{warmed, plain} {
		for i, dst := range popular {
			queryPair(c, vps[i%4], dst)
		}
		mustApply(t, c, deltas[0])
	}
	sweep := func(when string) {
		found := 0
		for _, dsts := range [][]Prefix{popular, others} {
			for i, dst := range dsts {
				for _, src := range []Prefix{vps[i%4], vps[4+i%4]} {
					got, want := queryPair(warmed, src, dst), queryPair(plain, src, dst)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s, %v -> %v:\n warmed   %+v\n unwarmed %+v", when, src, dst, got, want)
					}
					if got.Found {
						found++
					}
				}
			}
		}
		if found == 0 {
			t.Fatalf("%s the sweep answered nothing", when)
		}
	}
	sweep("while warming")
	wait()
	sweep("after warming")
	st, pl := warmed.CacheStats(), plain.CacheStats()
	if st.Warmed == 0 || pl.Warmed != 0 {
		t.Fatalf("warmed client %+v, held-back client %+v", st, pl)
	}
	// Nothing was evicted, so a key built twice shows as Builds > Len; and
	// the warmed client holds what the other does plus the trees it warmed
	// for keys the roll retired (a re-homed prefix), which nobody asks for.
	if st.Builds != uint64(st.Len) || uint64(st.Len) != uint64(pl.Len)+st.Warmed-st.WarmHits {
		t.Fatalf("warmed client %+v, held-back client %+v: a reader's miss during a warm costs one build, not two", st, pl)
	}
}

// TestWarmSupersededByNextRoll: a warmer that has not finished when the
// next roll publishes builds nothing more on its dead engine, and the next
// engine is warmed from what was resident in the one it replaces — not from
// the list the stopped warmer was working through.
func TestWarmSupersededByNextRoll(t *testing.T) {
	w, vps, days, deltas := dayChain(t, 151, 2)
	day0, day1 := spread(w.EdgePrefixes(), 40), spread(w.EdgePrefixes()[1:], 5)
	c := FromAtlas(days[0])
	nextWarmer := parkWarm(c)
	for _, dst := range day0 {
		queryPair(c, vps[0], dst)
	}
	resident0 := c.CacheStats().Len
	mustApply(t, c, deltas[0])
	engine1 := c.Snapshot()
	for _, dst := range day1 {
		queryPair(c, vps[1], dst)
	}
	resident1 := c.CacheStats()
	if resident1.Len == 0 || resident1.Len*2 > resident0 {
		t.Fatalf("%d trees resident on day 0, %d on day 1: the two lists must differ in length for this test to tell them apart", resident0, resident1.Len)
	}
	mustApply(t, c, deltas[1])
	nextWarmer() // engine 1's, released after engine 2 was published
	if got := engine1.e.CacheStats(); got != resident1 {
		t.Fatalf("the superseded engine's warmer still built on it: %+v -> %+v", resident1, got)
	}
	nextWarmer()
	st := c.CacheStats()
	if st.Warmed != uint64(resident1.Len) || st.Builds != st.Warmed {
		t.Fatalf("engine 2 warmed %+v, want the %d trees resident in engine 1", st, resident1.Len)
	}
	for _, dst := range day1 {
		queryPair(c, vps[1], dst)
	}
	// All but a key the second roll retired, that is.
	if got := c.CacheStats(); got.WarmHits+1 < got.Warmed || got.Builds-st.Builds != got.Warmed-got.WarmHits {
		t.Fatalf("engine 1's stream on engine 2: %+v -> %+v, want the warmed trees hit and none built", st, got)
	}
}

// TestWarmNeverEvictsReaders: readers fill the new engine's one small shard
// while the warmer is parked. When it runs it finds no free slot: it builds
// nothing, and everything the readers asked for is still resident.
func TestWarmNeverEvictsReaders(t *testing.T) {
	w, vps, days, deltas := dayChain(t, 152, 1)
	opts := core.INanoOptions()
	opts.TreeCacheSize = 6 // one shard
	c := FromFlatOptions(atlas.Compile(days[0]), opts)
	nextWarmer := parkWarm(c)
	for _, dst := range spread(w.EdgePrefixes(), 12) {
		queryPair(c, vps[0], dst)
	}
	mustApply(t, c, deltas[0])
	var asked []Prefix
	for _, dst := range spread(w.EdgePrefixes()[1:], 20) {
		if c.CacheStats().Len == opts.TreeCacheSize {
			break
		}
		if queryPair(c, vps[1], dst).Found {
			asked = append(asked, dst)
		}
	}
	full := c.CacheStats()
	if full.Len != opts.TreeCacheSize || len(asked) < 3 {
		t.Fatalf("readers left the shard at %+v after %d answered queries", full, len(asked))
	}
	nextWarmer()
	if got := c.CacheStats(); got != full {
		t.Fatalf("the warmer moved a full shard: %+v -> %+v", full, got)
	}
	for _, dst := range asked {
		queryPair(c, vps[1], dst)
	}
	if got := c.CacheStats(); got.Builds != full.Builds {
		t.Fatalf("%d of the readers' trees were gone after the warmer ran", got.Builds-full.Builds)
	}
}

// TestWarmRehomedPrefix: the roll moves a warmed destination's prefix to
// another cluster, so yesterday's key names a tree nobody will ask for. It
// is built and sits unused; every answer is a never-cached client's.
func TestWarmRehomedPrefix(t *testing.T) {
	_, vps, days, _ := dayChain(t, 153, 0)
	c := FromAtlas(days[0])
	inlineWarm(c)
	src, moved := vps[0], vps[1]
	for _, dst := range vps[1:] {
		queryPair(c, src, dst)
	}
	from, to := days[0].PrefixCluster[moved], days[0].PrefixCluster[vps[2]]
	if from == to {
		t.Skip("the two vantage points share a cluster")
	}
	rehomed := days[0].Clone()
	rehomed.PrefixCluster[moved] = to
	mustApply(t, c, encodeDelta(t, atlas.Diff(days[0], rehomed)))
	st := c.CacheStats()
	if st.Warmed == 0 || st.Builds != st.Warmed {
		t.Fatalf("after the re-homing roll: %+v", st)
	}
	cold := FromFlat(c.Snapshot().e.Flat())
	for _, dst := range vps[1:] {
		if got, want := queryPair(c, src, dst), queryPair(cold, src, dst); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v -> %v:\n warmed %+v\n cold   %+v", src, dst, got, want)
		}
	}
	if got := c.CacheStats(); got.WarmHits >= got.Warmed {
		t.Fatalf("%+v: the tree for %v's old cluster should have gone unasked", got, moved)
	}
}

// TestWarmHitRatio: the warm list earns its builds. Day 0 serves a popular
// stream; after the roll the same stream must hit at least nine in ten of
// the trees the warmer rebuilt, and build no more than the roll retired.
// docs/performance.md records the mutations this and TestWarmHottestFirst
// turn red for (the list warmed in reverse and stopped halfway; random
// keys).
func TestWarmHitRatio(t *testing.T) {
	w, vps, days, deltas := dayChain(t, 154, 1)
	c := FromAtlas(days[0])
	inlineWarm(c)
	popular := func() {
		for round := 0; round < 3; round++ {
			for i, dst := range spread(w.EdgePrefixes(), 64) {
				queryPair(c, vps[i%3], dst)
			}
		}
	}
	popular()
	resident := c.CacheStats().Len
	mustApply(t, c, deltas[0])
	popular()
	st := c.CacheStats()
	if st.Warmed == 0 || st.Warmed > uint64(resident) {
		t.Fatalf("%d trees resident before the roll, %+v after", resident, st)
	}
	if ratio := float64(st.WarmHits) / float64(st.Warmed); ratio < 0.9 {
		t.Fatalf("the popular stream hit %d of %d warmed trees (%.2f), want >= 0.9", st.WarmHits, st.Warmed, ratio)
	}
	if st.Builds-st.Warmed > st.Warmed-st.WarmHits {
		t.Fatalf("%+v: the popular stream built more trees than the roll retired keys", st)
	}
}

// TestWarmHottestFirst: when the new engine has room for only half of
// yesterday's trees — readers took the other slots while the warmer was
// parked — the half it rebuilds is the recently used one. Day 0 serves n
// one-off destinations and then n popular ones; the popular stream after
// the roll hits at least nine in ten warmed trees. Warmed in any other
// order, the slots go to the one-offs and the ratio is near zero.
func TestWarmHottestFirst(t *testing.T) {
	const n = 7
	w, vps, days, deltas := dayChain(t, 156, 1)
	opts := core.INanoOptions()
	opts.TreeCacheSize = 2*n + 1 // the source's tree and two of the three sets, in one shard (under 16 trees)
	src := vps[0]
	// 3n destinations answered from src, no two sharing a tree, whose trees
	// the roll neither retires nor merges.
	var dsts []Prefix
	day0, day1, seen := FromAtlas(days[0]), FromAtlas(days[1]), map[[2]uint32]bool{}
	key := func(c *Client, p Prefix) [2]uint32 {
		cl, _ := c.Snapshot().AttachmentCluster(p)
		return [2]uint32{uint32(cl), uint32(c.Snapshot().OriginAS(p))}
	}
	for _, p := range append([]Prefix{src}, w.EdgePrefixes()...) {
		if k := key(day0, p); k == key(day1, p) && !seen[k] {
			seen[k] = true
			if p != src && queryPair(day0, src, p).Found && queryPair(day1, src, p).Found {
				dsts = append(dsts, p)
			}
		}
	}
	if len(dsts) < 3*n {
		t.Fatalf("world has %d distinct destinations from %v, need %d", len(dsts), src, 3*n)
	}
	c := FromFlatOptions(atlas.Compile(days[0]), opts)
	nextWarmer := parkWarm(c)
	oneOffs, popular, fresh := dsts[:n], dsts[n:2*n], dsts[2*n:3*n]
	ask := func(ps []Prefix) {
		for _, dst := range ps {
			queryPair(c, src, dst)
		}
	}
	ask(oneOffs)
	ask(popular)
	mustApply(t, c, deltas[0])
	ask(fresh)
	free := opts.TreeCacheSize - c.CacheStats().Len
	nextWarmer()
	ask(popular)
	st := c.CacheStats()
	if free != n || st.Warmed != n {
		t.Fatalf("%+v: %d slots were free for the warmer, want %d and all warmed", st, free, n)
	}
	if ratio := float64(st.WarmHits) / float64(st.Warmed); ratio < 0.9 {
		t.Fatalf("the popular stream hit %d of %d warmed trees (%.2f), want >= 0.9", st.WarmHits, st.Warmed, ratio)
	}
}

// TestAddTraceroutesWarm: a traceroute merge that changes structure drops
// the tree cache and so starts a warmer; one that teaches nothing, or only
// residuals (the cache is kept), starts none.
func TestAddTraceroutesWarm(t *testing.T) {
	f := buildFixture(t, 108, 0)
	c := FromAtlas(f.a)
	started := 0
	c.startWarm = func(warm func()) { started++; warm() }
	src := f.vps[0]
	for _, dst := range f.vps[1:] {
		queryPair(c, src, dst)
	}
	resident := c.CacheStats().Len
	trs := realTraceroutes(f, src, 6)
	if c.AddTraceroutes(trs) == 0 {
		t.Skip("world produced no mergeable traceroutes")
	}
	if st := c.CacheStats(); started != 1 || st.Warmed != uint64(resident) {
		t.Fatalf("structural merge: %d warmers, %+v, %d trees were resident", started, st, resident)
	}
	if n := c.AddTraceroutes(trs); n != 0 || started != 1 {
		t.Fatalf("the same traceroutes again merged %d changes and started warmer %d", n, started)
	}
	for i := range trs {
		trs[i].PredictedRTTMS = queryPair(c, trs[i].Src, trs[i].Dst).RTTMS + 1000
		trs[i].Predicted = true
	}
	if c.AddTraceroutes(trs) > 0 && started != 1 {
		t.Fatal("a residual-only merge keeps its cache and must start no warmer")
	}
}

// TestWarmGoroutineEnds runs the warmer as publish starts it, with no
// hook: it finishes the list on its own and its goroutine is gone.
func TestWarmGoroutineEnds(t *testing.T) {
	w, vps, days, deltas := dayChain(t, 155, 1)
	c := FromAtlas(days[0])
	for _, dst := range spread(w.EdgePrefixes(), 32) {
		queryPair(c, vps[0], dst)
	}
	resident := c.CacheStats().Len
	base := runtime.NumGoroutine()
	mustApply(t, c, deltas[0])
	deadline := time.Now().Add(10 * time.Second)
	for c.CacheStats().Warmed < uint64(resident) || runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines (baseline %d), %+v of %d trees warmed", runtime.NumGoroutine(), base, c.CacheStats(), resident)
		}
		time.Sleep(time.Millisecond)
	}
}
