package core

import (
	"context"
	"sync"
	"time"
)

// shardedTreeCache is the engine's per-destination prediction tree cache.
// Keys spread across power-of-two shards by a Fibonacci hash of the
// destination cluster, so concurrent queries to distinct destinations take
// distinct locks and never contend. Each shard is an LRU over its slice of
// the capacity, with singleflight computation: concurrent misses on the
// same cold destination block on one in-flight build instead of running
// the backtracking Dijkstra once per caller.
type shardedTreeCache struct {
	shards []cacheShard
	mask   uint64
}

// cacheShard is one lock domain: an LRU (map + intrusive list, most
// recently used at the head) plus the in-flight build registry.
type cacheShard struct {
	mu         sync.Mutex
	cap        int
	items      map[uint64]*lruEntry
	head, tail *lruEntry
	inflight   map[uint64]*inflightBuild

	// Stats, guarded by mu. builds counts trees actually computed; with
	// singleflight, concurrent misses on one key contribute one build.
	// buildNS sums the wall time of those builds.
	hits, misses, builds uint64
	buildNS              int64
}

type lruEntry struct {
	key        uint64
	t          *tree
	prev, next *lruEntry
}

// inflightBuild publishes a tree being computed; waiters block on done and
// read t afterwards (the channel close orders the writes before the reads).
// If the build panicked, panicked holds the recovered value and waiters
// re-panic with it instead of returning a nil tree.
type inflightBuild struct {
	done     chan struct{}
	t        *tree
	panicked any
}

// CacheStats aggregates tree cache counters across shards.
type CacheStats struct {
	Hits   uint64 // lookups answered from a cached tree
	Misses uint64 // lookups that required (or joined) a build
	Builds uint64 // Dijkstra runs actually executed
	// BuildNS is the summed wall time of those runs, in nanoseconds:
	// BuildNS/Builds is what one cold destination costs a caller.
	BuildNS int64
	Len     int // trees currently cached
}

// newShardedTreeCache builds a cache holding up to capacity trees across
// shardCount shards (rounded up to a power of two). Every shard holds at
// least one tree, so tiny capacities still cache.
func newShardedTreeCache(capacity, shardCount int) *shardedTreeCache {
	if shardCount < 1 {
		shardCount = 1
	}
	n := 1
	for n < shardCount {
		n <<= 1
	}
	perShard := (capacity + n - 1) / n
	if perShard < 1 {
		perShard = 1
	}
	c := &shardedTreeCache{shards: make([]cacheShard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].items = make(map[uint64]*lruEntry)
		c.shards[i].inflight = make(map[uint64]*inflightBuild)
	}
	return c
}

func (c *shardedTreeCache) shard(k uint64) *cacheShard {
	// Fibonacci hash: tree keys are dense small integers (cluster<<32 |
	// origin), so multiply-shift scatters them across shards.
	return &c.shards[(k*0x9E3779B97F4A7C15)>>32&c.mask]
}

// treeBuilder computes the tree for a cache key on a miss. *Engine is the
// production implementation (Engine.buildTree); taking an interface whose
// value is an existing pointer — rather than a per-call closure — keeps
// the warm-hit path allocation-free.
type treeBuilder interface {
	buildTree(k uint64) *tree
}

// builderFunc adapts a plain function to treeBuilder (test hook).
type builderFunc func(uint64) *tree

func (f builderFunc) buildTree(k uint64) *tree { return f(k) }

// getOrCompute returns the cached tree for k, or computes it exactly once
// across all concurrent callers and caches the result. The caller that wins
// the build runs b.buildTree to completion (so the tree stays cached for a
// retry); callers joining an in-flight build stop waiting when ctx is
// cancelled and return ctx.Err(). A panic in the build is cleaned up — the
// in-flight entry is removed so the key is not poisoned — and re-raised in
// the builder and every waiter.
func (c *shardedTreeCache) getOrCompute(ctx context.Context, k uint64, bld treeBuilder) (*tree, error) {
	s := c.shard(k)
	s.mu.Lock()
	if e, ok := s.items[k]; ok {
		s.moveToFront(e)
		s.hits++
		s.mu.Unlock()
		return e.t, nil
	}
	s.misses++
	if b, ok := s.inflight[k]; ok {
		s.mu.Unlock()
		select {
		case <-b.done:
			if b.panicked != nil {
				panic(b.panicked)
			}
			return b.t, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	b := &inflightBuild{done: make(chan struct{})}
	s.inflight[k] = b
	s.mu.Unlock()

	completed := false
	start := time.Now()
	defer func() {
		if !completed {
			b.panicked = recover()
		}
		s.mu.Lock()
		delete(s.inflight, k)
		if completed {
			s.builds++
			s.buildNS += int64(time.Since(start))
			s.insert(k, b.t)
		}
		s.mu.Unlock()
		close(b.done)
		if b.panicked != nil {
			panic(b.panicked)
		}
	}()
	b.t = bld.buildTree(k)
	completed = true
	return b.t, nil
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
		s.mu.Unlock()
	}
	return st
}

// insert adds k at the front, evicting the least recently used entry when
// the shard is full. Re-inserting an existing key refreshes its recency.
func (s *cacheShard) insert(k uint64, t *tree) {
	if e, ok := s.items[k]; ok {
		e.t = t
		s.moveToFront(e)
		return
	}
	if len(s.items) >= s.cap {
		oldest := s.tail
		s.unlink(oldest)
		delete(s.items, oldest.key)
	}
	e := &lruEntry{key: k, t: t}
	s.items[k] = e
	s.pushFront(e)
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

// keysMRU returns the shard's keys from most to least recently used (test
// helper for eviction-order assertions).
func (s *cacheShard) keysMRU() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []uint64
	for e := s.head; e != nil; e = e.next {
		out = append(out, e.key)
	}
	return out
}
