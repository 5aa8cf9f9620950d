package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"inano/internal/atlas"
	"inano/internal/cluster"
	"inano/internal/netsim"
)

// fakeTree returns a distinct tree pointer tagged by id (hop[0] carries
// the tag; nothing walks the slice).
func fakeTree(id int32) *tree { return &tree{hop: []int32{id}} }

func treeTag(t *tree) int32 { return t.hop[0] }

// builderFunc adapts a plain function to treeBuilder: a tree's one
// extension calls it and finishes the tree with the hop words it returns.
type builderFunc func(uint64) *tree

func (f builderFunc) newTree(k uint64) *tree { return bareTree(k) }

// getOrCompute is a reader's door in one call: lookup, then extend.
func (c *shardedTreeCache) getOrCompute(ctx context.Context, k uint64, bld treeBuilder, need []int32) (*tree, error) {
	return c.extend(ctx, c.lookup(k, bld), bld, need, 0)
}

// bareTree is k's tree with no nodes: all a fake extension needs.
func bareTree(k uint64) *tree { return &tree{key: k, lock: make(chan struct{}, 1)} }

func (f builderFunc) extend(t *tree, _ []int32, _ int) {
	t.hop = f(t.key).hop
	t.done.Store(true)
}

// TestLRUEvictionOrder drives a single-shard cache through scripted access
// sequences and checks exactly which keys survive and in what recency
// order.
func TestLRUEvictionOrder(t *testing.T) {
	cases := []struct {
		name    string
		cap     int
		ops     []uint64 // getOrCompute calls in order
		wantMRU []uint64 // expected keys, most recently used first
	}{
		{
			name:    "no eviction below capacity",
			cap:     3,
			ops:     []uint64{1, 2, 3},
			wantMRU: []uint64{3, 2, 1},
		},
		{
			name:    "oldest evicted first",
			cap:     3,
			ops:     []uint64{1, 2, 3, 4},
			wantMRU: []uint64{4, 3, 2},
		},
		{
			name:    "hit refreshes recency",
			cap:     3,
			ops:     []uint64{1, 2, 3, 1, 4}, // touching 1 saves it; 2 dies
			wantMRU: []uint64{4, 1, 3},
		},
		{
			name:    "repeated hits keep one entry",
			cap:     2,
			ops:     []uint64{1, 1, 1, 2},
			wantMRU: []uint64{2, 1},
		},
		{
			name:    "capacity one thrashes",
			cap:     1,
			ops:     []uint64{1, 2, 3},
			wantMRU: []uint64{3},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newShardedTreeCache(tc.cap, 1)
			for _, k := range tc.ops {
				k := k
				got, err := c.getOrCompute(context.Background(), k, builderFunc(func(uint64) *tree { return fakeTree(int32(k)) }), nil)
				if err != nil {
					t.Fatalf("key %d: %v", k, err)
				}
				if treeTag(got) != int32(k) {
					t.Fatalf("key %d returned tree tagged %d", k, treeTag(got))
				}
			}
			got := c.keysMRU()
			if len(got) != len(tc.wantMRU) {
				t.Fatalf("cache holds %v, want %v", got, tc.wantMRU)
			}
			for i := range got {
				if got[i] != tc.wantMRU[i] {
					t.Fatalf("cache order %v, want %v", got, tc.wantMRU)
				}
			}
		})
	}
}

// TestEvictedKeyRecomputes checks an evicted tree is rebuilt on next use.
func TestEvictedKeyRecomputes(t *testing.T) {
	c := newShardedTreeCache(1, 1)
	builds := 0
	build := func(k uint64) *tree {
		builds++
		return fakeTree(int32(k))
	}
	c.getOrCompute(context.Background(), 7, builderFunc(func(uint64) *tree { return build(7) }), nil)
	c.getOrCompute(context.Background(), 8, builderFunc(func(uint64) *tree { return build(8) }), nil) // evicts 7
	c.getOrCompute(context.Background(), 7, builderFunc(func(uint64) *tree { return build(7) }), nil) // must rebuild
	if builds != 3 {
		t.Fatalf("builds = %d, want 3", builds)
	}
	st := c.stats()
	if st.Builds != 3 || st.Hits != 0 || st.Misses != 3 || st.Len != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestShardCapacitySplit checks total capacity is divided across shards
// with a floor of one tree per shard.
func TestShardCapacitySplit(t *testing.T) {
	cases := []struct {
		capacity, shards, wantShards, wantPerShard int
	}{
		{64, 16, 16, 4},
		{10, 4, 4, 3},  // ceil(10/4)
		{1, 16, 16, 1}, // floor of one per shard
	}
	for _, tc := range cases {
		c := newShardedTreeCache(tc.capacity, tc.shards)
		if len(c.shards) != tc.wantShards {
			t.Errorf("cap %d shards %d: got %d shards, want %d", tc.capacity, tc.shards, len(c.shards), tc.wantShards)
		}
		for i := range c.shards {
			if c.shards[i].cap != tc.wantPerShard {
				t.Errorf("cap %d shards %d: shard %d holds %d, want %d", tc.capacity, tc.shards, i, c.shards[i].cap, tc.wantPerShard)
			}
		}
	}
}

// TestSingleflightDedup hammers one cold key from many goroutines and
// checks the compute function ran exactly once, with every caller getting
// the same tree.
func TestSingleflightDedup(t *testing.T) {
	c := newShardedTreeCache(16, 4)
	const goroutines = 32
	var computes atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]*tree, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], _ = c.getOrCompute(context.Background(), 42, builderFunc(func(uint64) *tree {
				computes.Add(1)
				<-release // hold the build so every goroutine joins it
				return fakeTree(42)
			}), nil)
		}(g)
	}
	// Let the other goroutines reach the tree's lock, then release. The
	// sleep-free way: computes hitting 1 means one goroutine is inside
	// compute; the rest either wait on wg or haven't started. Closing
	// release lets the build finish; latecomers then hit the cache.
	for computes.Load() == 0 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for g, r := range results {
		if r != results[0] {
			t.Fatalf("goroutine %d got a different tree", g)
		}
	}
	if st := c.stats(); st.Builds != 1 {
		t.Fatalf("stats.Builds = %d, want 1", st.Builds)
	}
}

// TestSingleflightDistinctKeysIndependent checks that builds of different
// destinations do not serialize on each other's singleflight.
func TestSingleflightDistinctKeysIndependent(t *testing.T) {
	c := newShardedTreeCache(64, 8)
	var wg sync.WaitGroup
	var computes atomic.Int32
	for k := uint64(0); k < 24; k++ {
		wg.Add(1)
		go func(k uint64) {
			defer wg.Done()
			got, _ := c.getOrCompute(context.Background(), k, builderFunc(func(uint64) *tree {
				computes.Add(1)
				return fakeTree(int32(k))
			}), nil)
			if treeTag(got) != int32(k) {
				t.Errorf("key %d returned tree tagged %d", k, treeTag(got))
			}
		}(k)
	}
	wg.Wait()
	if n := computes.Load(); n != 24 {
		t.Fatalf("computes = %d, want 24", n)
	}
}

// TestSingleflightWaiterHonorsContext checks a caller joining an in-flight
// build unblocks with ctx.Err() when its context is cancelled, instead of
// waiting out the build.
func TestSingleflightWaiterHonorsContext(t *testing.T) {
	c := newShardedTreeCache(16, 1)
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.getOrCompute(context.Background(), 5, builderFunc(func(uint64) *tree {
			close(started)
			<-release // a slow build holding the singleflight
			return fakeTree(5)
		}), nil)
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := c.getOrCompute(ctx, 5, builderFunc(func(uint64) *tree {
		t.Error("waiter must join the in-flight build, not start its own")
		return nil
	}), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned (%v, %v), want context.Canceled", got, err)
	}
	close(release)
	wg.Wait()
	// The abandoned build still completes and is cached for the next caller.
	got, err = c.getOrCompute(context.Background(), 5, builderFunc(func(uint64) *tree {
		t.Error("tree should be cached after the build completed")
		return nil
	}), nil)
	if err != nil || treeTag(got) != 5 {
		t.Fatalf("retry after cancellation got (%v, %v)", got, err)
	}
}

// TestSingleflightPanicDoesNotPoisonKey checks a panicking build propagates
// to its caller but leaves the key computable: the in-flight entry is
// cleaned up so later callers retry instead of deadlocking.
func TestSingleflightPanicDoesNotPoisonKey(t *testing.T) {
	c := newShardedTreeCache(16, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("builder's panic was swallowed")
			}
		}()
		c.getOrCompute(context.Background(), 9, builderFunc(func(uint64) *tree { panic("dijkstra bug") }), nil)
	}()
	done := make(chan *tree, 1)
	go func() {
		got, _ := c.getOrCompute(context.Background(), 9, builderFunc(func(uint64) *tree { return fakeTree(9) }), nil)
		done <- got
	}()
	got := <-done
	if treeTag(got) != 9 {
		t.Fatalf("retry after panic returned tree tagged %d, want 9", treeTag(got))
	}
	if st := c.stats(); st.Builds != 1 || st.Len != 1 {
		t.Fatalf("stats after panic+retry = %+v, want one successful build cached", st)
	}
}

// TestEngineColdDestinationBuiltOnce checks the engine-level contract: a
// stampede of concurrent queries to one cold destination runs one
// Dijkstra.
func TestEngineColdDestinationBuiltOnce(t *testing.T) {
	w := buildWorld(t, 73)
	e := New(w.a, INanoOptions())
	dst := w.targets[0]
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e.PredictForward(w.vps[g%len(w.vps)], dst)
		}(g)
	}
	wg.Wait()
	if st := e.CacheStats(); st.Builds != 1 {
		t.Fatalf("cold destination built %d trees, want 1 (stats %+v)", st.Builds, st)
	}
}

// TestEngineCacheBoundedUnderChurn queries more destinations than the
// cache holds and checks residency never exceeds the configured bound.
func TestEngineCacheBoundedUnderChurn(t *testing.T) {
	w := buildWorld(t, 74)
	opts := INanoOptions()
	opts.TreeCacheSize = 8
	e := New(w.a, opts)
	for i, dst := range w.targets {
		e.PredictForward(w.vps[i%len(w.vps)], dst)
	}
	st := e.CacheStats()
	if st.Len > 8 {
		t.Fatalf("cache holds %d trees, bound is 8", st.Len)
	}
	if st.Builds == 0 {
		t.Fatal("no trees built")
	}
}

// TestDefaultShardsFollowCapacity checks the shard count an engine picks
// for its cache size: a shard is its own LRU, so a small cache gets fewer,
// each of at least 8 trees.
func TestDefaultShardsFollowCapacity(t *testing.T) {
	a := atlas.New()
	a.NumClusters, a.ClusterAS = 1, []netsim.ASN{1}
	for _, tc := range []struct{ size, wantShards, wantCap int }{
		{size: 64, wantShards: 8, wantCap: 8},
		{size: 4096, wantShards: 32, wantCap: 128},
		{size: 0, wantShards: 32, wantCap: 128},
		{size: 5, wantShards: 1, wantCap: 5},
	} {
		c := New(a, Options{TreeCacheSize: tc.size}).trees
		if len(c.shards) != tc.wantShards || c.shards[0].cap != tc.wantCap {
			t.Errorf("size %d: %d shards of %d, want %d of %d",
				tc.size, len(c.shards), c.shards[0].cap, tc.wantShards, tc.wantCap)
		}
	}
}

// TestSmallCacheKeepsRecentTrees replays one seeded stream — 24 keys that
// keep coming back, each within a few dozen lookups, among keys asked for
// once — on a 64-tree engine with the shards its size picks and with 32.
// Every recurring key fits the cache several times over; two-entry shards
// lose them anyway, so the picked count must build strictly fewer trees.
func TestSmallCacheKeepsRecentTrees(t *testing.T) {
	a := atlas.New()
	a.NumClusters, a.ClusterAS = 1, []netsim.ASN{1}
	builds := func(shards int) uint64 {
		e := New(a, Options{TreeCacheSize: 64})
		e.trees = newShardedTreeCache(64, shards)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 20000; i++ {
			k := treeKey(cluster.ClusterID(rng.Intn(24)), 1)
			if rng.Intn(2) == 0 {
				k = treeKey(cluster.ClusterID(100+i), 1)
			}
			e.trees.mustGet(t, k, builderFunc(func(k uint64) *tree { return fakeTree(int32(k)) }))
		}
		return e.CacheStats().Builds
	}
	if def, split := builds(treeCacheShards(64)), builds(32); def >= split {
		t.Fatalf("default shards built %d trees, 32 shards %d: want strictly fewer", def, split)
	} else {
		t.Logf("builds over 20000 lookups: default shards %d, 32 shards %d", def, split)
	}
}
