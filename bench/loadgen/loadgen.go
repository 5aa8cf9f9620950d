// Package loadgen turns a seed into a reproducible stream of (src, dst)
// query pairs: sources drawn uniformly from a fixed set, destinations
// drawn by Zipf popularity from a bounded, shuffled subset of the
// candidates, pairs the caller cannot answer filtered out. The same Config
// always yields the same stream, byte for byte, on every platform and Go
// release: the generator carries its own PRNG (splitmix64) and never
// touches math/rand. It knows nothing about atlases — identifiers are
// opaque uint32s — so any harness in the repository can consume it.
package loadgen

import (
	"math"
	"sort"
)

// Pair is one generated query.
type Pair struct{ Src, Dst uint32 }

// Config fixes a stream.
type Config struct {
	// Seed selects the stream's draws; equal configs give equal streams.
	// It does not select which destinations are hot: see rankSeed.
	Seed int64
	// Sources is the set sources are drawn from, uniformly.
	Sources []uint32
	// Dests is the candidate destination set.
	Dests []uint32
	// MaxDests bounds destination cardinality: the stream names at most
	// this many distinct destinations, chosen and popularity-ranked by a
	// fixed shuffle of Dests (<= 0 or >= len(Dests) means all of them).
	MaxDests int
	// ZipfS is the popularity exponent over the ranked destinations:
	// rank k (1-based) is drawn with weight k^-ZipfS. 0 is uniform, 1 the
	// classic Zipf law.
	ZipfS float64
	// Keep, when set, filters the stream: a pair it rejects is dropped and
	// the generator draws again. It must accept some pair.
	Keep func(Pair) bool
}

// Gen streams the pairs of one Config. It is not safe for concurrent use.
type Gen struct {
	state  uint64
	srcs   []uint32
	ranked []uint32  // bounded destination set, most popular first
	cdf    []float64 // cumulative popularity, cdf[len-1] == 1
	keep   func(Pair) bool
}

// rankSeed seeds the shuffle that picks the bounded destination set and
// ranks it by popularity. It is a constant, so that streams of different
// seeds are samples of one population: they differ in their draws, not in
// what is hot.
const rankSeed = 1

// maxRejects bounds consecutive filtered draws: a Keep that rejects this
// many pairs in a row accepts nothing the generator can produce.
const maxRejects = 1 << 20

// New builds a generator. It panics on an empty source or destination set,
// which no caller can stream from.
func New(cfg Config) *Gen {
	if len(cfg.Sources) == 0 || len(cfg.Dests) == 0 {
		panic("loadgen: empty source or destination set")
	}
	g := &Gen{state: rankSeed, srcs: cfg.Sources, keep: cfg.Keep}
	g.ranked = append([]uint32(nil), cfg.Dests...)
	for i := len(g.ranked) - 1; i > 0; i-- { // Fisher-Yates
		j := g.intn(i + 1)
		g.ranked[i], g.ranked[j] = g.ranked[j], g.ranked[i]
	}
	g.state = uint64(cfg.Seed)
	if cfg.MaxDests > 0 && cfg.MaxDests < len(g.ranked) {
		g.ranked = g.ranked[:cfg.MaxDests]
	}
	g.cdf = make([]float64, len(g.ranked))
	sum := 0.0
	for k := range g.cdf {
		sum += math.Pow(float64(k+1), -cfg.ZipfS)
		g.cdf[k] = sum
	}
	for k := range g.cdf {
		g.cdf[k] /= sum
	}
	return g
}

// next is splitmix64.
func (g *Gen) next() uint64 {
	g.state += 0x9E3779B97F4A7C15
	z := g.state
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (g *Gen) intn(n int) int { return int(g.next() % uint64(n)) }

// Ranked returns the bounded destination set, most popular first. The
// slice is shared; do not modify it.
func (g *Gen) Ranked() []uint32 { return g.ranked }

// Next returns the stream's next pair.
func (g *Gen) Next() Pair {
	for tries := 0; tries < maxRejects; tries++ {
		u := float64(g.next()>>11) / (1 << 53)
		k := sort.SearchFloat64s(g.cdf, u)
		if k == len(g.cdf) { // u above the rounded-down last bucket
			k--
		}
		p := Pair{Src: g.srcs[g.intn(len(g.srcs))], Dst: g.ranked[k]}
		if g.keep == nil || g.keep(p) {
			return p
		}
	}
	panic("loadgen: Keep rejected every generated pair")
}
