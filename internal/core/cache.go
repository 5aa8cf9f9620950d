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
// the backtracking Dijkstra once per caller. Readers enter by getOrCompute;
// warm is the second door, for trees built on a guess (Engine.Warm).
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
	// warmed counts trees warm built that the shard kept or a reader took
	// off the build; warmHits those of them a reader has since asked for.
	warmed, warmHits uint64
}

type lruEntry struct {
	key        uint64
	t          *tree
	prev, next *lruEntry
	warm       bool // built by warm and not hit since
}

// inflightBuild publishes a tree being computed; waiters block on done and
// read t afterwards (the channel close orders the writes before the reads).
// If the build panicked, panicked holds the recovered value and waiters
// re-panic with it instead of returning a nil tree.
type inflightBuild struct {
	done     chan struct{}
	t        *tree
	panicked any
	warm     bool // started by warm and not joined by a reader (under mu)
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
	// Bytes is what those trees retain: Len times the size of one tree,
	// computed from the atlas's node count, not sampled from the heap.
	Bytes int64
	// Warmed counts trees rebuilt behind a publish from the previous
	// engine's resident set (they are in Builds too), WarmHits those a
	// lookup has since asked for: the warm list's own hit ratio.
	Warmed, WarmHits uint64
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
		if e.warm {
			e.warm = false
			s.warmHits++
		}
		s.mu.Unlock()
		return e.t, nil
	}
	s.misses++
	if b, ok := s.inflight[k]; ok {
		if b.warm { // a reader wants it: the guess was right, and it goes in at the front
			b.warm = false
			s.warmed++
			s.warmHits++
		}
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
	return s.build(k, b, bld), nil
}

// warm builds k's tree on a guess that a reader will want it. A key already
// resident or in flight, or whose shard is full, is left alone, and no
// lookup is counted; the build is registered like a reader's, so a reader's
// miss meanwhile joins it.
func (c *shardedTreeCache) warm(k uint64, bld treeBuilder) {
	s := c.shard(k)
	s.mu.Lock()
	if s.items[k] != nil || s.inflight[k] != nil || len(s.items) >= s.cap {
		s.mu.Unlock()
		return
	}
	b := &inflightBuild{done: make(chan struct{}), warm: true}
	s.inflight[k] = b
	s.mu.Unlock()
	s.build(k, b, bld)
}

// build computes the tree for k, which the caller registered in flight as
// b, and caches it: at the front for a reader, by insert's rule for warm.
func (s *cacheShard) build(k uint64, b *inflightBuild, bld treeBuilder) *tree {
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
			s.insert(k, b.t, b.warm)
		}
		s.mu.Unlock()
		close(b.done)
		if b.panicked != nil {
			panic(b.panicked)
		}
	}()
	b.t = bld.buildTree(k)
	completed = true
	return b.t
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
		st.Warmed += s.warmed
		st.WarmHits += s.warmHits
		s.mu.Unlock()
	}
	return st
}

// insert caches the tree just built for k (so k is not resident). A
// reader's goes in at the front, evicting the least recently used entry
// when the shard is full. A warm one goes in at the cold end and only into
// a free slot: a guess never evicts, and never outranks a tree a reader
// asked for.
func (s *cacheShard) insert(k uint64, t *tree, warm bool) {
	if len(s.items) >= s.cap {
		if warm {
			return
		}
		oldest := s.tail
		s.unlink(oldest)
		delete(s.items, oldest.key)
	}
	e := &lruEntry{key: k, t: t, warm: warm}
	s.items[k] = e
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
			per[i] = append(per[i], e.key)
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
