package server

import (
	"fmt"
	"testing"
	"time"
)

func TestTokenBucketsBurstAndRefill(t *testing.T) {
	now := time.Unix(1000, 0)
	tb := newTokenBuckets(2, 4) // 2 tokens/s, burst 4
	tb.nowFn = func() time.Time { return now }

	if got := tb.take("a", 3); got != 3 {
		t.Fatalf("initial take = %d, want 3", got)
	}
	if got := tb.take("a", 3); got != 1 {
		t.Fatalf("burst exceeded: got %d, want 1", got)
	}
	if got := tb.take("a", 1); got != 0 {
		t.Fatalf("empty bucket granted %d", got)
	}
	// Another source has its own bucket.
	if got := tb.take("b", 4); got != 4 {
		t.Fatalf("source b: %d, want 4", got)
	}
	// 1.5s refills 3 tokens for a, capped at burst.
	now = now.Add(1500 * time.Millisecond)
	if got := tb.take("a", 10); got != 3 {
		t.Fatalf("after refill: %d, want 3", got)
	}
	// A long idle period caps at burst, not unbounded credit.
	now = now.Add(time.Hour)
	if got := tb.take("a", 10); got != 4 {
		t.Fatalf("after idle: %d, want burst 4", got)
	}
}

// TestTokenBucketsPartialGrantTruncation: a fractional token balance
// grants its floor, never rounds up past what the bucket holds, and the
// fraction stays behind for the next refill.
func TestTokenBucketsPartialGrantTruncation(t *testing.T) {
	now := time.Unix(1000, 0)
	tb := newTokenBuckets(1, 10) // 1 token/s, burst 10
	tb.nowFn = func() time.Time { return now }

	if got := tb.take("a", 10); got != 10 {
		t.Fatalf("drain: %d", got)
	}
	// 2.5s of refill = 2.5 tokens; a request for 3 gets the floor, 2.
	now = now.Add(2500 * time.Millisecond)
	if got := tb.take("a", 3); got != 2 {
		t.Fatalf("fractional balance granted %d, want 2", got)
	}
	// The half token survived the truncation: another 0.5s completes it.
	now = now.Add(500 * time.Millisecond)
	if got := tb.take("a", 3); got != 1 {
		t.Fatalf("carried fraction granted %d, want 1", got)
	}
	// An over-ask against a fresh bucket is truncated to the burst.
	if got := tb.take("fresh", 1_000_000); got != 10 {
		t.Fatalf("over-ask granted %d, want burst 10", got)
	}
}

// TestTokenBucketsRotationChurnKeepsActiveBucket: an attacker rotating
// through fresh source keys fills the table, but every eviction takes the
// stalest bucket — so an actively reporting legitimate source is never
// evicted while any staler (abandoned) bucket exists.
func TestTokenBucketsRotationChurnKeepsActiveBucket(t *testing.T) {
	now := time.Unix(1000, 0)
	tb := newTokenBuckets(1, 4)
	tb.nowFn = func() time.Time { return now }

	// The legitimate source drains half its bucket, establishing history.
	if got := tb.take("legit", 2); got != 2 {
		t.Fatalf("legit initial take: %d", got)
	}
	// Churn: more rotating keys than the table holds, each used once and
	// abandoned, while the legitimate source keeps reporting.
	for i := 0; i < maxSources+64; i++ {
		now = now.Add(100 * time.Millisecond)
		tb.take(fmt.Sprintf("attacker-%d", i), 4)
		now = now.Add(100 * time.Millisecond)
		if got := tb.take("legit", 0); got != 0 {
			t.Fatalf("zero-take granted %d", got)
		}
	}
	if n := tb.len(); n != maxSources {
		t.Fatalf("table size %d, want bound %d", n, maxSources)
	}
	if ev := tb.evictions(); ev == 0 {
		t.Fatal("churn produced no evictions; test is not exercising the bound")
	}
	// The legitimate bucket survived with its refill history: after the
	// churn above it holds its full burst but NOT a fresh-bucket
	// reset — prove it is the same bucket by draining it and checking the
	// next take sees an empty (not burst-fresh) bucket.
	if got := tb.take("legit", 10); got != 4 {
		t.Fatalf("legit bucket after churn granted %d, want burst 4", got)
	}
	if got := tb.take("legit", 4); got != 0 {
		t.Fatalf("drained legit bucket granted %d; it was evicted and reborn", got)
	}
	// Sanity: a rotated-away attacker key *was* evicted (re-taking it
	// yields a fresh bucket at full burst).
	if got := tb.take("attacker-0", 4); got != 4 {
		t.Fatalf("stale attacker bucket kept state: %d", got)
	}
}

func TestTokenBucketsUnlimited(t *testing.T) {
	tb := newTokenBuckets(-1, 4)
	if got := tb.take("a", 1_000_000); got != 1_000_000 {
		t.Fatalf("negative rate should disable limiting: %d", got)
	}
}

func TestTokenBucketsEviction(t *testing.T) {
	now := time.Unix(1000, 0)
	tb := newTokenBuckets(1e-6, 1) // a drained bucket stays drained
	tb.nowFn = func() time.Time { return now }
	for i := 0; i < maxSources; i++ {
		now = now.Add(time.Second)
		tb.take(fmt.Sprint("src-", i), 1)
	}
	if tb.len() != maxSources {
		t.Fatalf("len = %d", tb.len())
	}
	// One more source evicts the stalest ("src-0"); the table stays bounded.
	now = now.Add(time.Second)
	tb.take("new", 1)
	if tb.len() != maxSources || tb.evictions() != 1 {
		t.Fatalf("table at %d sources after %d evictions, want %d after 1", tb.len(), tb.evictions(), maxSources)
	}
	// "src-0" was evicted: a fresh bucket starts at burst, not its drained
	// state; "src-1" was not, and is still drained.
	if got := tb.take("src-1", 1); got != 0 {
		t.Fatalf("kept source granted %d, want its drained 0", got)
	}
	if got := tb.take("src-0", 1); got != 1 {
		t.Fatalf("re-added source should start with burst: %d", got)
	}
}
