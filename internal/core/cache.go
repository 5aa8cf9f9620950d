package core

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// shardedTreeCache is the engine's per-destination prediction tree cache.
// Keys spread across power-of-two shards by a Fibonacci hash of the
// destination cluster, so concurrent queries to distinct destinations take
// distinct locks and never contend. Each shard is an LRU over its slice of
// the capacity. A miss inserts the tree unstarted; whoever needs more of it
// extends its search under the tree's own lock (one search a key). Readers
// enter by lookup, then extend; warm is the door for guesses (Engine.Warm).
type shardedTreeCache struct {
	shards  []cacheShard
	mask    uint64
	popular atomic.Pointer[[]uint64] // the keys Engine.Warm is warming, sorted: a miss on one is searched whole
}

// cacheShard is one lock domain: an LRU (map + intrusive list, most
// recently used at the head) and its counters.
type cacheShard struct {
	mu         sync.Mutex
	cap        int
	items      map[uint64]*lruEntry
	head, tail *lruEntry

	// Stats, guarded by mu: builds counts searches started, buildNS the wall
	// time of every extension, warmed the trees warm inserted and warmHits
	// those a reader then asked for.
	hits, misses, builds, warmed, warmHits uint64
	buildNS                                int64
}

type lruEntry struct {
	t          *tree
	prev, next *lruEntry
	warm       bool // inserted by warm and not hit since
}

// CacheStats aggregates tree cache counters across shards.
type CacheStats struct {
	Hits   uint64 // lookups that found the tree resident (it may have searched on)
	Misses uint64 // lookups that inserted a new tree
	Builds uint64 // trees whose Dijkstra search was started
	// BuildNS sums the nanoseconds of every extension: BuildNS/Builds is
	// what one cold destination costs.
	BuildNS   int64
	Len       int // trees currently cached
	Suspended int // those whose search stopped short of the end and kept its frontier
	// Bytes is what they retain, computed, not sampled: Len finished trees
	// plus each suspended search's frontier.
	Bytes int64
	// Warmed counts trees rebuilt behind a publish from the previous
	// engine's resident set (they are in Builds too), WarmHits those a
	// lookup has since asked for: the warm list's own hit ratio.
	Warmed, WarmHits uint64
}

// treeCacheShards is the lock-shard count of a cache of capacity trees:
// 32, halved until a shard holds 8 trees, since a shard is its own LRU and
// one of two entries forgets what the cache as a whole would keep. More
// shards reduce contention between concurrent queries to distinct
// destinations.
func treeCacheShards(capacity int) int {
	n := 32
	for n > 1 && capacity < 8*n {
		n /= 2
	}
	return n
}

// newShardedTreeCache builds a cache holding up to capacity trees across n
// shards, a power of two. Every shard holds at least one tree, so tiny
// capacities still cache.
func newShardedTreeCache(capacity, n int) *shardedTreeCache {
	perShard := max((capacity+n-1)/n, 1)
	c := &shardedTreeCache{shards: make([]cacheShard, n), mask: uint64(n - 1)}
	c.popular.Store(new([]uint64))
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].items = make(map[uint64]*lruEntry)
	}
	return c
}

func (c *shardedTreeCache) shard(k uint64) *cacheShard {
	// Fibonacci hash: tree keys are dense small integers (cluster<<32 |
	// origin), so multiply-shift scatters them across shards.
	return &c.shards[(k*0x9E3779B97F4A7C15)>>32&c.mask]
}

// treeBuilder makes unstarted trees and extends a search under its tree's
// lock (Engine.search). *Engine is the production implementation; an
// interface whose value is an existing pointer — rather than a per-call
// closure — keeps the warm-hit path allocation-free.
type treeBuilder interface {
	newTree(k uint64) *tree
	extend(t *tree, need []int32, slice int)
}

const warmSlice = 1024 // nodes a warm search settles between yields: what a reader waits for

// lookup returns k's resident tree, or inserts bld's unstarted one at the
// front of the shard, evicting the least recently used tree if it is full.
func (c *shardedTreeCache) lookup(k uint64, bld treeBuilder) *tree {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.items[k]; ok {
		s.moveToFront(e)
		s.hits++
		if e.warm {
			e.warm = false
			s.warmHits++
		}
		return e.t
	}
	s.misses++
	t := bld.newTree(k)
	_, t.popular = slices.BinarySearch(*c.popular.Load(), k)
	s.insert(t, false)
	return t
}

// warm inserts k's tree on a guess, unless k is resident or its shard is
// full, and searches it to the end unless a reader is on it, counting no
// lookup; a reader who asks meanwhile waits one slice at most, then takes over.
func (c *shardedTreeCache) warm(k uint64, bld treeBuilder) {
	s := c.shard(k)
	s.mu.Lock()
	var t *tree
	if s.items[k] == nil && len(s.items) < s.cap {
		t = bld.newTree(k)
		s.insert(t, true)
	}
	s.mu.Unlock()
	for t != nil && !t.done.Load() && len(t.lock) == 0 {
		if u, _ := c.extend(bgCtx, t, bld, nil, warmSlice); u != t { // the background context never ends a wait
			return // t was evicted
		}
	}
}

// extend takes t's lock unless t.ready(need) (or returns ctx's error), and
// runs and counts bld's extension unless t is ready by then. It returns the
// tree searched: t, or the key's tree looked up again if an evicted t gave
// its frontier away (insert). A search that panics drops t from the cache,
// so its key is not poisoned, and the panic is raised again in every waiter.
func (c *shardedTreeCache) extend(ctx context.Context, t *tree, bld treeBuilder, need []int32, slice int) (*tree, error) {
	if t.ready(need) {
		return t, nil
	}
	t.waiting.Add(1)
	select {
	case t.lock <- struct{}{}:
		t.waiting.Add(-1)
	case <-ctx.Done():
		t.waiting.Add(-1)
		return t, ctx.Err()
	}
	if t.panicked == nil && t.count > 0 && t.frontier == nil && !t.done.Load() {
		<-t.lock
		return c.extend(ctx, c.lookup(t.key, bld), bld, need, slice)
	}
	defer func() { <-t.lock }()
	if t.panicked == nil && !t.ready(need) {
		s, first, start := c.shard(t.key), t.count == 0, time.Now()
		func() {
			defer func() { t.panicked = recover() }()
			bld.extend(t, need, slice)
		}()
		s.mu.Lock()
		if t.panicked == nil {
			s.buildNS += int64(time.Since(start))
			if first {
				s.builds++
			}
		} else if e := s.items[t.key]; e != nil && e.t == t {
			s.unlink(e)
			delete(s.items, t.key)
		}
		s.mu.Unlock()
	}
	if t.panicked != nil {
		panic(t.panicked)
	}
	return t, nil
}

func (c *shardedTreeCache) stats() CacheStats {
	var st CacheStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Builds += s.builds
		st.BuildNS += s.buildNS
		st.Len += len(s.items)
		for _, e := range s.items {
			if kept := e.t.kept.Load(); kept > 0 && !e.t.done.Load() {
				st.Suspended++
				st.Bytes += int64(kept)
			}
		}
		st.Warmed += s.warmed
		st.WarmHits += s.warmHits
		s.mu.Unlock()
	}
	return st
}

// insert caches t, whose key is not resident. A reader's goes in at the
// front, evicting the least recently used entry when the shard is full. A
// warm one goes in at the cold end, and only into a free slot (warm checks):
// a guess never evicts, and never outranks a tree a reader asked for.
func (s *cacheShard) insert(t *tree, warm bool) {
	if len(s.items) >= s.cap {
		oldest := s.tail
		s.unlink(oldest)
		delete(s.items, oldest.t.key)
		select { // its frontier buffer goes to t unless an extension holds it
		case oldest.t.lock <- struct{}{}:
			t.frontier, oldest.t.frontier = oldest.t.frontier, nil
			<-oldest.t.lock
		default:
		}
	}
	e := &lruEntry{t: t, warm: warm}
	s.items[t.key] = e
	if !warm {
		s.pushFront(e)
		return
	}
	s.warmed++
	e.prev = s.tail
	if s.tail != nil {
		s.tail.next = e
	} else {
		s.head = e
	}
	s.tail = e
}

func (s *cacheShard) pushFront(e *lruEntry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *cacheShard) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *cacheShard) moveToFront(e *lruEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// keysMRU lists the resident keys hottest first: most recently used first
// within a shard, and rank by rank across shards, which keep no common
// clock.
func (c *shardedTreeCache) keysMRU() []uint64 {
	per := make([][]uint64, len(c.shards))
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for e := s.head; e != nil; e = e.next {
			per[i] = append(per[i], e.t.key)
		}
		s.mu.Unlock()
		n += len(per[i])
	}
	out := make([]uint64, 0, n)
	for rank := 0; len(out) < n; rank++ {
		for _, ks := range per {
			if rank < len(ks) {
				out = append(out, ks[rank])
			}
		}
	}
	return out
}
