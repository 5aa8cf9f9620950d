package core

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

func never() bool { return false }

// fakeBuilder builds tagged fake trees and counts them.
type fakeBuilder struct{ built []uint64 }

func (b *fakeBuilder) newTree(k uint64) *tree { return bareTree(k) }

func (b *fakeBuilder) extend(t *tree, _ []int32, _ int) {
	b.built = append(b.built, t.key)
	builderFunc(func(k uint64) *tree { return fakeTree(int32(k)) }).extend(t, nil, 0)
}

func (c *shardedTreeCache) mustGet(t *testing.T, k uint64, b treeBuilder) *tree {
	t.Helper()
	got, err := c.getOrCompute(context.Background(), k, b, nil)
	if err != nil || treeTag(got) != int32(k) {
		t.Fatalf("key %d: (%v, %v)", k, got, err)
	}
	return got
}

// TestWarmColdEndFreeSlotOnly scripts one shard: warm trees enter behind
// everything a reader asked for, in the order they were warmed, never evict,
// and are not even built for a full shard; a reader's insert into the full
// shard evicts the coldest warm tree first.
func TestWarmColdEndFreeSlotOnly(t *testing.T) {
	c := newShardedTreeCache(4, 1)
	b := &fakeBuilder{}
	c.mustGet(t, 1, b)
	c.mustGet(t, 2, b)
	for _, k := range []uint64{7, 8, 9} { // two free slots: 9 finds none
		c.warm(k, b)
	}
	if got, want := c.keysMRU(), []uint64{2, 1, 7, 8}; !slices.Equal(got, want) {
		t.Fatalf("order %v, want %v: readers' trees first, then warmed ones as warmed", got, want)
	}
	if !slices.Equal(b.built, []uint64{1, 2, 7, 8}) {
		t.Fatalf("built %v: a full shard must not cost a warm build", b.built)
	}
	if st := c.stats(); st.Warmed != 2 || st.WarmHits != 0 || st.Builds != 4 || st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats %+v: warming is not a lookup", st)
	}
	c.mustGet(t, 3, b) // a reader's tree evicts the coldest guess, 8
	if got, want := c.keysMRU(), []uint64{3, 2, 1, 7}; !slices.Equal(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	// The first hit on a warmed tree counts once and promotes it.
	c.mustGet(t, 7, b)
	c.mustGet(t, 7, b)
	if st := c.stats(); st.Warmed != 2 || st.WarmHits != 1 || st.Hits != 2 || st.Builds != 5 {
		t.Fatalf("stats %+v after two hits on one warmed tree", st)
	}
	if got, want := c.keysMRU(), []uint64{7, 3, 2, 1}; !slices.Equal(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

// TestWarmSkipsResidentAndInflight: warming a resident key neither rebuilds
// it nor refreshes its recency nor counts a hit, and warming a key a reader
// is building returns at once instead of waiting for the build: the
// reader's miss made the key resident, so warm starts no second search.
func TestWarmSkipsResidentAndInflight(t *testing.T) {
	c := newShardedTreeCache(4, 1)
	b := &fakeBuilder{}
	c.mustGet(t, 1, b)
	c.mustGet(t, 2, b)
	c.warm(1, b)
	if got := c.keysMRU(); !slices.Equal(got, []uint64{2, 1}) || len(b.built) != 2 {
		t.Fatalf("warming a resident key: order %v, built %v", got, b.built)
	}
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		c.getOrCompute(context.Background(), 5, builderFunc(func(uint64) *tree {
			close(started)
			<-release
			return fakeTree(5)
		}), nil)
	}()
	<-started
	c.warm(5, b) // would deadlock the test if it waited for the reader's search
	close(release)
	<-done
	if st := c.stats(); st.Builds != 3 || st.Warmed != 0 || st.Hits != 0 || len(b.built) != 2 {
		t.Fatalf("stats %+v, warmer built %v", st, b.built)
	}
}

// TestWarmBuildJoinedByReader: a reader asking for a key the warmer is
// building finds its tree resident and waits for the warmer's search — one
// build, not two — and the tree then belongs to the reader: front of the
// shard, counted warmed and hit.
func TestWarmBuildJoinedByReader(t *testing.T) {
	c := newShardedTreeCache(4, 1)
	c.mustGet(t, 1, &fakeBuilder{})
	started, release, warmed := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(warmed)
		c.warm(5, builderFunc(func(uint64) *tree {
			close(started)
			<-release
			return fakeTree(5)
		}))
	}()
	<-started
	got := make(chan *tree)
	go func() {
		tr, _ := c.getOrCompute(context.Background(), 5, builderFunc(func(uint64) *tree {
			t.Error("the reader built a tree the warmer was already building")
			return fakeTree(5)
		}), nil)
		got <- tr
	}()
	for c.stats().Hits < 1 { // the reader's lookup found the warm tree, and waits for its lock
		runtime.Gosched()
	}
	close(release)
	if tr := <-got; treeTag(tr) != 5 {
		t.Fatalf("reader got tree %d", treeTag(tr))
	}
	<-warmed
	if got := c.keysMRU(); !slices.Equal(got, []uint64{5, 1}) {
		t.Fatalf("order %v: a tree a reader waited for goes in at the front", got)
	}
	c.mustGet(t, 5, &fakeBuilder{})
	if st := c.stats(); st.Builds != 2 || st.Warmed != 1 || st.WarmHits != 1 {
		t.Fatalf("stats %+v, want the joined build counted once as warmed and once as hit", st)
	}
}

// TestKeysMRUInterleavesShards: the warm list takes every shard's hottest
// key before any shard's second.
func TestKeysMRUInterleavesShards(t *testing.T) {
	c := newShardedTreeCache(64, 4)
	b := &fakeBuilder{}
	for k := uint64(0); k < 24; k++ {
		c.mustGet(t, k, b)
	}
	keys := c.keysMRU()
	if len(keys) != 24 {
		t.Fatalf("%d keys listed, 24 resident", len(keys))
	}
	rank := map[uint64]int{} // position of a key within its own shard
	for i := range c.shards {
		n := 0
		for e := c.shards[i].head; e != nil; e = e.next {
			rank[e.t.key] = n
			n++
		}
	}
	for i := 1; i < len(keys); i++ {
		if rank[keys[i]] < rank[keys[i-1]] {
			t.Fatalf("key %d (rank %d in its shard) listed after key %d (rank %d)", keys[i], rank[keys[i]], keys[i-1], rank[keys[i-1]])
		}
	}
}

// TestEngineWarmRestoresOrder: an engine warmed from its predecessor's
// list holds the same trees in the same order — hottest-first warming into
// the cold end does not reverse yesterday's recency — and answers exactly
// as an engine that built every tree on a reader's miss.
func TestEngineWarmRestoresOrder(t *testing.T) {
	w := buildWorld(t, 75)
	prev, next, cold := New(w.a, INanoOptions()), New(w.a, INanoOptions()), New(w.a, INanoOptions())
	for i, dst := range w.targets {
		prev.Query(w.vps[i%3], dst)
	}
	keys := next.WarmList(prev)
	if len(keys) == 0 || len(keys) != prev.CacheStats().Len {
		t.Fatalf("warm list of %d keys, %d trees resident", len(keys), prev.CacheStats().Len)
	}
	next.Warm(keys, never)
	if got := next.trees.keysMRU(); !slices.Equal(got, keys) {
		t.Fatalf("warmed engine's order differs from its predecessor's:\n got  %v\n want %v", got, keys)
	}
	st := next.CacheStats()
	if st.Warmed != uint64(len(keys)) || st.Builds != st.Warmed || st.Hits+st.Misses != 0 {
		t.Fatalf("stats %+v after warming %d keys", st, len(keys))
	}
	for i, dst := range w.targets {
		if got, want := next.Query(w.vps[i%3], dst), cold.Query(w.vps[i%3], dst); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v -> %v: warmed %+v, cold %+v", w.vps[i%3], dst, got, want)
		}
	}
	if st := next.CacheStats(); st.Builds != uint64(len(keys)) || st.WarmHits != st.Warmed {
		t.Fatalf("stats %+v: the same stream should hit every warmed tree and build none", st)
	}
	// An engine that adopted the cache has nothing to warm.
	if keys := NewWithCache(prev.Flat(), INanoOptions(), prev).WarmList(prev); keys != nil {
		t.Fatalf("an engine sharing its predecessor's cache got a warm list of %d", len(keys))
	}
}

// TestEngineWarmStaleKeys: keys that mean nothing to the new atlas cost at
// most a wasted build, never a panic or a wrong answer. A cluster beyond the
// new atlas's is skipped; an origin AS no prefix has is built and sits
// unused; a list none of whose keys is valid leaves Warmed at zero.
func TestEngineWarmStaleKeys(t *testing.T) {
	w := buildWorld(t, 76)
	e, cold := New(w.a, INanoOptions()), New(w.a, INanoOptions())
	n := uint64(e.numClusters)
	e.Warm([]uint64{n << 32, (n+7)<<32 | 64500, ^uint64(0), 1<<63 | 5}, never)
	if st := e.CacheStats(); st.Builds != 0 || st.Warmed != 0 || st.Len != 0 {
		t.Fatalf("keys outside the atlas were built: %+v", st)
	}
	e.Warm([]uint64{treeKey(0, 4_000_000_000), treeKey(1, 0)}, never)
	if st := e.CacheStats(); st.Builds != 2 || st.Warmed != 2 {
		t.Fatalf("in-range keys with unknown origins: %+v", st)
	}
	for i, dst := range w.targets {
		if got, want := e.Query(w.vps[i%3], dst), cold.Query(w.vps[i%3], dst); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v -> %v: %+v, want %+v", w.vps[i%3], dst, got, want)
		}
	}
}

// TestEngineWarmStops: the warmer asks stop before every key and builds
// nothing once it says so.
func TestEngineWarmStops(t *testing.T) {
	w := buildWorld(t, 77)
	e := New(w.a, INanoOptions())
	keys := w.treeKeys()
	if len(keys) < 6 {
		t.Fatalf("world has %d trees", len(keys))
	}
	asked := 0
	e.Warm(keys, func() bool { asked++; return asked > 3 })
	if st := e.CacheStats(); st.Builds != 3 || st.Warmed != 3 {
		t.Fatalf("warmer told to stop after 3 keys: %+v", st)
	}
	if got := e.trees.keysMRU(); len(got) != 3 {
		t.Fatalf("resident %v", got)
	}
}
