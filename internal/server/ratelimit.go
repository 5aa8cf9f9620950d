package server

import (
	"sync"
	"time"
)

// tokenBuckets rate-limits feedback ingestion per source: each key (the
// reporting peer) gets an independent token bucket of `burst` capacity
// refilled at `rate` tokens/second. The table is bounded at maxSources —
// when full, the stalest bucket is evicted — so an attacker rotating source addresses
// cannot grow daemon memory without bound (each fresh key starts with
// only `burst` tokens, so rotation buys burst observations per key, not
// an unlimited rate-free ride on a fresh bucket's refill history).
type tokenBuckets struct {
	mu      sync.Mutex
	rate    float64 // tokens per second
	burst   float64
	buckets map[string]*bucket
	nowFn   func() time.Time // test hook
	evicted uint64
}

// maxSources bounds a limiter's table of source buckets.
const maxSources = 4096

type bucket struct {
	tokens float64
	last   time.Time
}

// newTokenBuckets builds a limiter; rate <= 0 disables limiting (every
// take succeeds).
func newTokenBuckets(rate float64, burst int) *tokenBuckets {
	if burst <= 0 {
		burst = 1
	}
	return &tokenBuckets{
		rate:    rate,
		burst:   float64(burst),
		buckets: make(map[string]*bucket),
		nowFn:   time.Now,
	}
}

// take attempts to spend n tokens for key, returning how many were
// granted (0..n): a report larger than the available tokens is partially
// accepted, matching the endpoint's accept-a-prefix contract.
func (t *tokenBuckets) take(key string, n int) int {
	if t.rate <= 0 {
		return n
	}
	now := t.nowFn()
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.buckets[key]
	if b == nil {
		if len(t.buckets) >= maxSources {
			t.evictStalestLocked()
		}
		b = &bucket{tokens: t.burst, last: now}
		t.buckets[key] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * t.rate
		if b.tokens > t.burst {
			b.tokens = t.burst
		}
		b.last = now
	}
	grant := n
	if float64(grant) > b.tokens {
		grant = int(b.tokens)
	}
	b.tokens -= float64(grant)
	return grant
}

func (t *tokenBuckets) evictStalestLocked() {
	var victimKey string
	var victim *bucket
	for k, b := range t.buckets {
		if victim == nil || b.last.Before(victim.last) {
			victimKey, victim = k, b
		}
	}
	if victim != nil {
		delete(t.buckets, victimKey)
		t.evicted++
	}
}

// len reports tracked sources.
func (t *tokenBuckets) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buckets)
}

// evictions reports how many source buckets were evicted to stay within
// maxSources.
func (t *tokenBuckets) evictions() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted
}
