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

// TestColdBuildAllocBudget is the allocation gate for the cold path:
// building a tree for a fresh key allocates the tree and its hop array and
// nothing else — every label and the queue live in the scratch. The test
// holds the scratch itself rather than going through Engine.run's pool
// (get, build, put), which under -race drops scratches at random. CI runs
// it beside the zero-alloc gates.
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
		dst, origin := splitTreeKey(keys[next])
		e.build(sc, dst, origin)
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
	if objects > 2 {
		t.Fatalf("cold build allocates %v objects, want <= 2 (tree, hop)", objects)
	}
	perBuild := (ms1.TotalAlloc - ms0.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	if budget := uint64(5*e.numNodes() + 128); perBuild > budget {
		t.Fatalf("cold build allocates %d bytes, budget %d (5 B x %d nodes + 128)", perBuild, budget, e.numNodes())
	}
}

// TestTreeBytes pins what a resident tree costs in every option variant:
// one word a node and a header, in two allocations, and CacheStats.Bytes
// counts exactly that for each tree the cache holds.
func TestTreeBytes(t *testing.T) {
	w := buildWorld(t, 61)
	dst, origin := splitTreeKey(w.treeKeys()[0])
	for name, opts := range allOptionVariants() {
		e := New(w.a, opts)
		sc := newRunScratch(e.numNodes())
		tr := e.build(sc, dst, origin)
		want := int64(unsafe.Sizeof(*tr)) + 4*int64(e.numNodes())
		if len(tr.hop) != e.numNodes() || cap(tr.hop) != len(tr.hop) || unsafe.Sizeof(*tr) != 32 || e.treeBytes() != want {
			t.Fatalf("%s: %d hop words (cap %d) and a %d-byte header over %d nodes, treeBytes %d; want one word a node, 32 and %d",
				name, len(tr.hop), cap(tr.hop), unsafe.Sizeof(*tr), e.numNodes(), e.treeBytes(), want)
		}
		if objects := testing.AllocsPerRun(5, func() { e.build(sc, dst, origin) }); objects != 2 {
			t.Fatalf("%s: a build allocates %v objects, want 2 (tree, hop)", name, objects)
		}
		for _, p := range w.targets[:10] {
			e.PredictForward(w.vps[0], p)
		}
		if st := e.CacheStats(); st.Len == 0 || st.Bytes != int64(st.Len)*want {
			t.Fatalf("%s: %d resident trees retain %d bytes, want %d each", name, st.Len, st.Bytes, want)
		}
	}
}

// TestNewWithCacheAllocs holds NewWithCache to building only what it does
// not adopt: with a predecessor, it allocates no tree cache, edgeTo (4 B an
// edge) or tuple runs (8 B an edge), so at least 4 B an edge fewer than
// NewFromFlat over the same atlas. TestEdgeToMatchesBuckets checks that
// what it adopts is the predecessor's own.
func TestNewWithCacheAllocs(t *testing.T) {
	w := buildWorld(t, 61)
	prev := New(w.a, INanoOptions())
	f, opts := prev.Flat(), prev.Opts()
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
