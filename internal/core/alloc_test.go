package core

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestWarmQueryZeroAlloc is the allocation gate for the serving hot path:
// once the prediction trees for both directions of a pair are cached, a
// QueryInto into a reused PathInfo must not allocate at all. CI runs this
// test in the bench job; a regression here is a performance bug even if
// every functional test stays green.
func TestWarmQueryZeroAlloc(t *testing.T) {
	w := buildWorld(t, 61)
	e := New(w.a, INanoOptions())

	// Find a pair answered in both directions, then warm its trees and
	// the PathInfo's slice capacity.
	var info PathInfo
	src, dst := pickFoundPair(t, w, e)
	e.QueryInto(&info, src, dst)

	allocs := testing.AllocsPerRun(100, func() {
		e.QueryInto(&info, src, dst)
	})
	if allocs != 0 {
		t.Fatalf("warm QueryInto allocates %v times per op, want 0", allocs)
	}

	// The one-way raw path is equally hot (PredictForward's interior); it
	// must stay clean too.
	var p Prediction
	_ = e.predictInto(bgCtx, &p, e.resolve(src), e.resolve(dst))
	allocs = testing.AllocsPerRun(100, func() {
		_ = e.predictInto(bgCtx, &p, e.resolve(src), e.resolve(dst))
	})
	if allocs != 0 {
		t.Fatalf("warm predictInto allocates %v times per op, want 0", allocs)
	}
}

// TestColdBuildAllocBudget is the allocation gate for the cold path: a
// fresh tree is four objects — header, hop words, settled bits, lock — and
// a whole search on a scratch already grown allocates nothing besides. A
// search that stops short allocates one object more, its frontier, and the
// resume that finishes it none. The test holds the scratch itself rather
// than going through Engine.extend's pool (get, search, put), which under
// -race drops scratches at random. CI runs it beside the zero-alloc gates.
func TestColdBuildAllocBudget(t *testing.T) {
	w := buildWorld(t, 61)
	e := New(w.a, INanoOptions())
	keys := w.treeKeys()
	const runs = 20
	if len(keys) < runs+2 {
		t.Fatalf("world has %d distinct trees, need %d", len(keys), runs+2)
	}
	sc := newRunScratch(e.numNodes())
	next := 0
	build := func() {
		e.fullTree(sc, keys[next])
		next++
	}
	build() // grows the queue to its working size

	// One P before the byte window opens: AllocsPerRun drops to one itself,
	// and the runtime's resize would be counted against the builds.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	objects := testing.AllocsPerRun(runs, build)
	runtime.ReadMemStats(&ms1)
	if objects > 4 {
		t.Fatalf("cold build allocates %v objects, want <= 4 (tree, hop, settled, lock)", objects)
	}
	perBuild := (ms1.TotalAlloc - ms0.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	if budget := uint64(5*e.numNodes() + 384); perBuild > budget {
		t.Fatalf("cold build allocates %d bytes, budget %d (5 B x %d nodes + 384)", perBuild, budget, e.numNodes())
	}

	// Asked for a node it settles halfway, a search suspends; a second
	// scratch resumes it to the end.
	sc2 := newRunScratch(e.numNodes())
	tr := e.fullTree(sc, keys[0])
	half := int32(-1)
	for id, seen := 0, 0; id < e.numNodes(); id++ {
		if tr.has(int32(id)) {
			if seen++; seen == settledCount(tr)/2 {
				half = int32(id)
			}
		}
	}
	if objects := testing.AllocsPerRun(runs, func() {
		tr := e.newTree(keys[0])
		e.search(tr, sc, []int32{half}, 0)
		if tr.done.Load() || tr.frontier == nil {
			t.Fatal("the search asked for a node halfway ran to the end")
		}
		e.search(tr, sc2, nil, 0)
	}); objects > 5 {
		t.Fatalf("a search suspended and resumed allocates %v objects, want <= 5 (tree, hop, settled, lock, frontier)", objects)
	}
}

// TestTreeBytes pins what a resident tree costs in every option variant —
// a header, one word and one bit a node, and its lock, in four allocations
// — and that CacheStats.Bytes counts exactly that for each tree the cache
// holds, plus the frontier of each suspended one that cold legs leave
// behind. On the benchmark's world no suspended tree retains more than
// twice a finished one.
func TestTreeBytes(t *testing.T) {
	w := buildWorld(t, 61)
	k := w.treeKeys()[0]
	for name, opts := range allOptionVariants() {
		e := New(w.a, opts)
		sc := newRunScratch(e.numNodes())
		tr := e.fullTree(sc, k)
		n := int64(e.numNodes())
		want := int64(unsafe.Sizeof(*tr)) + 4*n + 8*((n+63)/64) + lockBytes
		if len(tr.hop) != e.numNodes() || cap(tr.hop) != len(tr.hop) || len(tr.settled) != int(n+63)/64 ||
			unsafe.Sizeof(*tr) != 128 || e.treeBytes() != want {
			t.Fatalf("%s: %d hop words (cap %d), %d settled words and a %d-byte header over %d nodes, treeBytes %d; want one word and one bit a node, 128 and %d",
				name, len(tr.hop), cap(tr.hop), len(tr.settled), unsafe.Sizeof(*tr), n, e.treeBytes(), want)
		}
		if objects := testing.AllocsPerRun(5, func() { e.fullTree(sc, k) }); objects != 4 {
			t.Fatalf("%s: a build allocates %v objects, want 4 (tree, hop, settled, lock)", name, objects)
		}
		for i, p := range w.targets {
			e.PredictForward(w.vps[i%len(w.vps)], p)
		}
		st, kept := e.CacheStats(), int64(0)
		for _, tk := range w.treeKeys() {
			if tr := e.trees.shard(tk).items[tk]; tr != nil {
				kept += int64(cap(tr.t.frontier))
			}
		}
		if st.Len == 0 || st.Suspended == 0 || kept == 0 || st.Bytes != int64(st.Len)*want+kept {
			t.Fatalf("%s: %d resident trees, %d suspended, retain %d bytes, want %d each and %d of frontiers", name, st.Len, st.Suspended, st.Bytes, want, kept)
		}
	}

	a, srcs, dsts := benchWorld(t)
	e := New(a, INanoOptions())
	sc, most := newRunScratch(e.numNodes()), 0
	for _, l := range coldLegs(e, srcs, dsts) {
		tr := e.newTree(l.k)
		e.search(tr, sc, []int32{l.need}, 0)
		most = max(most, cap(tr.frontier))
	}
	if whole := e.treeBytes(); whole+int64(most) > 2*whole {
		t.Fatalf("a suspended tree retains up to %d bytes beside a finished one's %d, want at most twice that", whole+int64(most), whole)
	}
}

// TestNewWithCacheAllocs holds NewWithCache to building only what it does
// not adopt: with a predecessor, it allocates no tree cache, edgeTo (4 B an
// edge) or tuple runs (8 B an edge), so at least 4 B an edge fewer than
// NewFromFlat over the same atlas. TestEdgeToMatchesBuckets checks that
// what it adopts is the predecessor's own.
func TestNewWithCacheAllocs(t *testing.T) {
	w := buildWorld(t, 61)
	opts := INanoOptions()
	prev := New(w.a, opts)
	f := prev.Flat()
	bytesOf := func(build func()) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		build()
		runtime.ReadMemStats(&ms1)
		return ms1.TotalAlloc - ms0.TotalAlloc
	}
	fresh := bytesOf(func() { NewFromFlat(f, opts) })
	adopted := bytesOf(func() { NewWithCache(f, opts, prev) })
	if edges := uint64(f.NumEdges()); adopted+4*edges > fresh {
		t.Fatalf("NewWithCache allocates %d bytes, NewFromFlat %d; want at least %d (4 B x %d edges) fewer",
			adopted, fresh, 4*edges, edges)
	}
}

// BenchmarkQueryInto_Warm is the steady-state serving loop: cached trees,
// reused PathInfo. ReportAllocs makes the zero-allocation property visible
// in bench output (the gate itself is TestWarmQueryZeroAlloc).
func BenchmarkQueryInto_Warm(b *testing.B) {
	w := buildWorld(b, 61)
	e := New(w.a, INanoOptions())
	var info PathInfo
	var src, dst = w.targets[0], w.targets[1]
	for i, s := range w.targets {
		for _, d := range w.targets[i+1:] {
			if e.Query(s, d).Found {
				src, dst = s, d
				goto warm
			}
		}
	}
warm:
	e.QueryInto(&info, src, dst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.QueryInto(&info, src, dst)
	}
}
