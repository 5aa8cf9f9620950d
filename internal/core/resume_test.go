package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"inano/internal/atlas"
	"inano/internal/netsim"
	"inano/sim"
)

var (
	benchWorldOnce sync.Once
	benchAtlas     *atlas.Atlas
	benchSrcs      []netsim.Prefix
	benchDsts      []netsim.Prefix
)

// benchWorld is the benchmark's world: Medium, seed 1, day 0, measured by
// 16 vantage points and 8 client agents over every edge prefix. It returns
// the atlas, those 24 as sources, and the edge prefixes as destinations.
func benchWorld(tb testing.TB) (*atlas.Atlas, []netsim.Prefix, []netsim.Prefix) {
	tb.Helper()
	benchWorldOnce.Do(func() {
		w := sim.NewWorld(sim.Medium, 1)
		benchSrcs, benchDsts = w.VantagePoints(24), w.EdgePrefixes()
		benchAtlas = w.Measure(sim.CampaignOptions{VPs: benchSrcs[:16], Targets: benchDsts, ClientVPs: benchSrcs[16:]}).BuildAtlas()
	})
	return benchAtlas, benchSrcs, benchDsts
}

// coldLeg is one forward leg asked of a tree nobody has searched: the key,
// and the node the leg needs settled.
type coldLeg struct {
	src  endpoint
	k    uint64
	need int32
}

// coldLegs asks every destination once, the sources taking turns.
func coldLegs(e *Engine, srcs, dsts []netsim.Prefix) []coldLeg {
	var legs []coldLeg
	for i, dst := range dsts {
		s, d := e.resolve(srcs[i%len(srcs)]), e.resolve(dst)
		if s.ok && d.ok && s.cl != d.cl {
			legs = append(legs, coldLeg{s, treeKey(d.cl, d.as), e.askNode(s.cl)})
		}
	}
	return legs
}

// pct is the p-th percentile of sorted vs, nearest rank.
func pct[T any](vs []T, p int) T { return vs[min(len(vs)-1, len(vs)*p/100)] }

// TestColdLegSettlesPart pins the mechanism by counts rather than time: on
// the benchmark's world, a cold forward leg's search stops once the leg's
// node settles, and over every edge prefix asked round-robin by 24 sources
// the median leg settles at most 60 % of what the whole search does — a
// leg whose node the search never reaches runs to the end and counts as
// all of it. A stopped tree answers each of the 24 sources with the whole
// tree's answer once that source's node is settled, and with none before:
// a walk never starts from a tentative node. It logs
// the sizing docs/performance.md records ("Stop where the answer is
// final"): where the leg's node falls in the settle order, and the frontier
// a suspended tree keeps.
func TestColdLegSettlesPart(t *testing.T) {
	a, srcs, dsts := benchWorld(t)
	e := New(a, INanoOptions())
	sc := newRunScratch(e.numNodes())
	legs := coldLegs(e, srcs, dsts)
	if len(legs) < 500 {
		t.Fatalf("%d cold legs, want at least 500", len(legs))
	}
	var all, stopped []float64
	var frontier, kept []int
	for _, l := range legs {
		full := e.fullTree(sc, l.k)
		tr := e.newTree(l.k)
		e.search(tr, sc, []int32{l.need}, 0)
		share := float64(settledCount(tr)) / float64(settledCount(full))
		all = append(all, share)
		if !tr.done.Load() {
			stopped = append(stopped, share)
			reached := 0
			for id, h := range tr.hop {
				if h != noRoute && !tr.has(int32(id)) {
					reached++
				}
			}
			frontier, kept = append(frontier, reached), append(kept, len(tr.frontier))
		}
		for _, src := range srcs {
			s := e.resolve(src)
			var got, want Prediction
			e.pathFromInto(tr, s.cl, &got)
			if tr.done.Load() || tr.has(e.askNode(s.cl)) {
				e.pathFromInto(full, s.cl, &want)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v into %#x: the stopped tree answers %+v, want %+v", src, l.k, got, want)
			}
		}
	}
	slices.Sort(all)
	slices.Sort(stopped)
	slices.Sort(frontier)
	slices.Sort(kept)
	t.Logf("%d cold legs over %d nodes; %d stopped early, %d ran to the end", len(legs), e.numNodes(), len(stopped), len(legs)-len(stopped))
	t.Logf("settled share of a whole search, stopped legs: p25 %.2f  p50 %.2f  p75 %.2f  p90 %.2f",
		pct(stopped, 25), pct(stopped, 50), pct(stopped, 75), pct(stopped, 90))
	t.Logf("settled share, every leg: p50 %.2f", pct(all, 50))
	t.Logf("frontier of a suspended tree: p50 %d  p90 %d  max %d nodes; p50 %d  max %d bytes kept against a %d-byte tree",
		pct(frontier, 50), pct(frontier, 90), frontier[len(frontier)-1], pct(kept, 50), kept[len(kept)-1], e.treeBytes())
	if med := pct(all, 50); med > 0.60 {
		t.Fatalf("the median cold leg settles %.2f of a whole search, want <= 0.60", med)
	}
}

// BenchmarkColdLeg times the searches TestColdLegSettlesPart counts, on the
// same legs: "leg" stops where the leg's answer is final, "whole" asks for
// every node. ns/op is one tree; the ratio of the two is what a cold query
// saves. iNano is the default configuration; GRAPH and GRAPH+asym price the
// up/down construction, whose arcs carry their relationships.
func BenchmarkColdLeg(b *testing.B) {
	a, srcs, dsts := benchWorld(b)
	for _, o := range []struct {
		name string
		opts Options
	}{{"iNano", INanoOptions()}, {"GRAPH", GraphOptions()}, {"GRAPH+asym", Options{Asymmetry: true}}} {
		e := New(a, o.opts)
		sc := newRunScratch(e.numNodes())
		legs := coldLegs(e, srcs, dsts)
		for _, bc := range []struct {
			name string
			need func(coldLeg) []int32
		}{
			{"leg", func(l coldLeg) []int32 { return []int32{l.need} }},
			{"whole", func(coldLeg) []int32 { return nil }},
		} {
			b.Run(o.name+"/"+bc.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					l := legs[i%len(legs)]
					e.search(e.newTree(l.k), sc, bc.need(l), 0)
				}
			})
		}
	}
}

// TestConcurrentResumeAndWarm has the warmer search sixteen of the
// benchmark world's trees in slices while four readers ask legs of them
// from every source in random order: readers extend trees the warmer and
// each other left suspended, and walk trees another goroutine is
// extending. Every answer is what an engine asked one leg at a time gives;
// every tree was started once and ends finished — by the warmer, or by the
// reader who asked a tree for more a second time.
// CI runs it under -race at -cpu 1,4.
func TestConcurrentResumeAndWarm(t *testing.T) {
	a, srcs, dsts := benchWorld(t)
	e, serial := New(a, INanoOptions()), New(a, INanoOptions())
	var keys []uint64
	var targets []netsim.Prefix
	seen := map[uint64]bool{}
	for _, p := range dsts {
		if d := e.resolve(p); d.ok && !seen[treeKey(d.cl, d.as)] && len(keys) < 16 {
			seen[treeKey(d.cl, d.as)] = true
			keys, targets = append(keys, treeKey(d.cl, d.as)), append(targets, p)
		}
	}
	type pair struct{ src, dst netsim.Prefix }
	var pairs []pair
	want := map[pair]Prediction{}
	for _, dst := range targets {
		for _, src := range srcs {
			pairs = append(pairs, pair{src, dst})
			want[pair{src, dst}] = serial.PredictForward(src, dst)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.Warm(keys, never)
	}()
	for e.CacheStats().Warmed == 0 { // the readers start on the warmer's first tree
		runtime.Gosched()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for _, i := range rng.Perm(len(pairs)) {
				if got := e.PredictForward(pairs[i].src, pairs[i].dst); !reflect.DeepEqual(got, want[pairs[i]]) {
					t.Errorf("%v -> %v: %+v, want %+v", pairs[i].src, pairs[i].dst, got, want[pairs[i]])
					return
				}
			}
		}()
	}
	wg.Wait()
	st := e.CacheStats()
	if st.Len != len(keys) || st.Builds != uint64(st.Len) {
		t.Fatalf("%+v: want %d trees, each started once", st, len(keys))
	}
	if st.WarmHits == 0 || st.Suspended != 0 {
		t.Fatalf("%+v: want the readers on a warmed tree, and every tree done", st)
	}
	t.Logf("%+v", st)
}

// TestEvictedTreeYieldsFrontier: a suspended tree the cache evicts hands
// its frontier buffer to the tree that takes its place, and a reader still
// holding the evicted tree who asks it for more searches the key's tree
// looked up again, which answers as the whole tree does and stays resident
// for the next holder; the evicted tree's settled answers stay as they were.
func TestEvictedTreeYieldsFrontier(t *testing.T) {
	a, srcs, dsts := benchWorld(t)
	opts := INanoOptions()
	opts.TreeCacheSize = 1
	e := New(a, opts)
	legs := coldLegs(e, srcs, dsts)
	var old *tree
	var leg coldLeg
	for _, leg = range legs {
		if old, _ = e.trees.getOrCompute(bgCtx, leg.k, e, []int32{leg.need}); !old.done.Load() {
			break
		}
	}
	buf := unsafe.SliceData(old.frontier)
	if next := e.trees.lookup(legs[len(legs)-1].k, e); unsafe.SliceData(next.frontier) != buf || old.frontier != nil {
		t.Fatal("the evicted tree kept its frontier buffer, or the new tree did not get it")
	}
	full, anew := e.fullTree(newRunScratch(e.numNodes()), leg.k), (*tree)(nil)
	for _, src := range srcs {
		s := e.resolve(src)
		var was, want, got Prediction
		e.pathFromInto(old, s.cl, &was)
		e.pathFromInto(full, s.cl, &want)
		if old.has(e.askNode(s.cl)) {
			if !reflect.DeepEqual(was, want) {
				t.Fatalf("%v: the evicted tree answers %+v, want %+v", src, was, want)
			}
			continue
		}
		tr, err := e.trees.extend(bgCtx, old, e, []int32{e.askNode(s.cl)}, 0)
		if e.pathFromInto(tr, s.cl, &got); err != nil || tr == old || !reflect.DeepEqual(got, want) {
			t.Fatalf("%v asked of the evicted tree: %+v (%v, searched anew: %v), want %+v", src, got, err, tr != old, want)
		}
		if anew != nil && tr != anew {
			t.Fatalf("%v: a second holder of the evicted tree searched a tree of its own", src)
		}
		anew = tr
	}
	if anew == nil {
		t.Fatal("every source's node was settled in the evicted tree: nothing asked it for more")
	}
}

// sliceCounter is the engine as a treeBuilder that records how many nodes
// each extension settled, with a reader waiting for the tree throughout
// when waiter is set.
type sliceCounter struct {
	*Engine
	waiter  bool
	settled []int
}

func (b *sliceCounter) extend(t *tree, need []int32, slice int) {
	if b.waiter {
		t.waiting.Add(1)
		defer t.waiting.Add(-1)
	}
	before := settledCount(t)
	b.Engine.extend(t, need, slice)
	b.settled = append(b.settled, settledCount(t)-before)
}

// TestWarmSearchesInSlices: the warmer searches a tree nobody else asks for
// in one extension, and with a reader waiting it stops every warmSlice
// settles — what that reader waits for at most — so a whole Medium tree is
// several slices.
func TestWarmSearchesInSlices(t *testing.T) {
	a, srcs, dsts := benchWorld(t)
	for _, waiter := range []bool{false, true} {
		e := New(a, INanoOptions())
		k := coldLegs(e, srcs, dsts)[0].k
		whole := settledCount(e.fullTree(newRunScratch(e.numNodes()), k))
		b := &sliceCounter{Engine: e, waiter: waiter}
		e.trees.warm(k, b)
		if !waiter {
			if !slices.Equal(b.settled, []int{whole}) {
				t.Fatalf("a tree of %d nodes warmed uncontended in extensions of %v, want one", whole, b.settled)
			}
		} else if len(b.settled) < 2 || len(b.settled) != (whole+warmSlice-1)/warmSlice {
			t.Fatalf("a tree of %d nodes warmed with a reader waiting in slices of %v, want %d-node slices", whole, b.settled, warmSlice)
		}
		for i, n := range b.settled[:len(b.settled)-1] {
			if n != warmSlice {
				t.Fatalf("slice %d settled %d nodes, want %d", i, n, warmSlice)
			}
		}
		if st := e.CacheStats(); st.Builds != 1 || st.Warmed != 1 || st.Suspended != 0 {
			t.Fatalf("%+v after warming one tree", st)
		}
	}
}

// TestSecondAskSearchesWhole: a reader's first ask of a tree stops once
// its answer is final, and any later ask that needs more runs to the end.
func TestSecondAskSearchesWhole(t *testing.T) {
	a, srcs, dsts := benchWorld(t)
	e := New(a, INanoOptions())
	legs := coldLegs(e, srcs, dsts)[:200]
	stopped := 0
	for i, l := range legs {
		tr, err := e.trees.getOrCompute(bgCtx, l.k, e, []int32{l.need})
		if err != nil {
			t.Fatalf("leg %d into %#x: %v", i, l.k, err)
		}
		if tr.done.Load() {
			continue
		}
		stopped++
		for _, src := range srcs {
			if s := e.resolve(src); s.ok && !tr.has(e.askNode(s.cl)) {
				if tr, _ = e.trees.getOrCompute(bgCtx, l.k, e, []int32{e.askNode(s.cl)}); !tr.done.Load() {
					t.Fatalf("leg %d: a second ask of %#x stopped short", i, l.k)
				}
				break
			}
		}
	}
	if stopped < len(legs)/4 { // legs into one tree after the first are later asks
		t.Fatalf("%d of %d first asks stopped short", stopped, len(legs))
	}
}

// TestPopularTreeSearchedWhole: while Engine.Warm works through its list, a
// reader's first ask of a key on it is searched whole — yesterday's popular
// trees — and other first asks stop short; once Warm returns, a first ask
// of any key stops short again.
func TestPopularTreeSearchedWhole(t *testing.T) {
	a, srcs, dsts := benchWorld(t)
	legs := coldLegs(New(a, INanoOptions()), srcs, dsts)[:200]
	var popular []uint64
	for i := 0; i < len(legs); i += 2 {
		popular = append(popular, legs[i].k)
	}
	stopped := func(e *Engine, marked bool) int {
		n := 0
		for i, l := range legs {
			tr, err := e.trees.getOrCompute(bgCtx, l.k, e, []int32{l.need})
			if err != nil || marked && i%2 == 0 && !tr.done.Load() {
				t.Fatalf("leg %d into popular %#x: done %v, %v", i, l.k, tr.done.Load(), err)
			}
			if !tr.done.Load() {
				n++
			}
		}
		return n
	}
	during := 0
	e := New(a, INanoOptions())
	e.Warm(popular, func() bool { during = stopped(e, true); return true }) // the list marked, none of it warmed
	if during < len(legs)/8 {
		t.Fatalf("%d of %d first asks off the warm list stopped short", during, len(legs)/2)
	}
	after := New(a, INanoOptions())
	after.Warm(popular, func() bool { return true })
	if n := stopped(after, false); n <= during {
		t.Fatalf("after Warm returned %d first asks stopped short, want more than the %d while it ran", n, during)
	}
}
