package trace

import (
	"math"
	"math/rand"
	"testing"
)

// TestNoiseSourceMatchesMathRand holds noiseSource to its contract: for
// any seed, the stream rand.NewSource(seed) yields. One instance is
// re-seeded throughout, after streams cut short at every stage of the lazy
// register fill, and each stream is read past the three places the
// register's state changes kind: draw 273 (taps start reading stored
// words), 607 (every word seeded) and 1 214 (every word overwritten twice).
func TestNoiseSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 1<<31 - 1, -(1<<31 - 1), 1 << 31, 1<<31 - 2, 2 * (1<<31 - 1), 89482311, math.MinInt64, math.MaxInt64}
	mix := rand.New(rand.NewSource(7))
	for len(seeds) < 1100 {
		seeds = append(seeds, int64(mix.Uint64()))
	}
	got := rand.New(new(noiseSource))
	for i, seed := range seeds {
		// Leave the register as an abandoned stream of some other seed left it.
		got.Seed(^seed)
		for n := i * 13 % 900; n > 0; n-- {
			got.Uint64()
		}
		got.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for n := 0; n < 1300; n++ {
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d: Float64 draw %d = %v, math/rand's is %v", seed, n, g, w)
			}
		}
		for n := 1300; n < 1400; n++ { // Float64 drops the top bits
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 draw %d = %#x, math/rand's is %#x", seed, n, g, w)
			}
		}
	}
}

// BenchmarkNoiseThirtyDraws is one measurement's worth of randomness: a
// fresh seed and thirty draws (12.7 us and 5 376 B on math/rand's own
// source, which seeds all 607 words first).
func BenchmarkNoiseThirtyDraws(b *testing.B) {
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		rng := noiseFor(1, 2, uint64(i), 3)
		for n := 0; n < 30; n++ {
			sink += rng.Float64()
		}
		noisePool.Put(rng)
	}
	_ = sink
}
