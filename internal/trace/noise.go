package trace

import (
	"math/rand"
	"sync"
)

// A measurement draws a few dozen numbers from a stream seeded for it
// alone, and math/rand seeds a source by stepping a Lehmer generator 1 841
// times to fill a 607-word register: forty times the work of the draws,
// and 5 KB allocated. noiseSource yields the same stream, filling a
// register word only when a draw reads it: math/rand's generator (frozen by
// the Go 1 promise) is x[n] = x[n-607] + x[n-273] over int64, seeded with
// word i = l(21+3i)<<40 ^ l(22+3i)<<20 ^ l(23+3i) ^ rngCooked[i], where
// l(n) = 48271^n * seed mod (2^31-1).
const (
	rngLen  = 607
	rngTap  = 273
	lehmerA = 48271
	lehmerM = 1<<31 - 1
)

var (
	lehmerJump [rngLen]uint64 // 48271^(21+3i) mod lehmerM
	rngCooked  [rngLen]int64  // math/rand's unexported table of that name
)

// init builds the jump table and reads rngCooked back out of a real
// source: the register rand.NewSource(1) was seeded with, recovered from
// its first 607 outputs, less seed 1's raw words. Output n (from 1) is
// vec[feed] + vec[tap], feed = 334-n and tap = 607-n (mod 607), stored back
// at feed; a tap past the first 273 outputs reads what output n-273 stored.
func init() {
	p := uint64(1)
	for n := 1; n <= 21+3*(rngLen-1); n++ {
		if p = p * lehmerA % lehmerM; n >= 21 && (n-21)%3 == 0 {
			lehmerJump[(n-21)/3] = p
		}
	}
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]int64
	for n := 1; n <= rngLen; n++ {
		out[n] = int64(src.Uint64())
	}
	var vec [rngLen]int64
	for n := rngTap + 1; n <= rngLen-rngTap; n++ { // words 60..0
		vec[rngLen-rngTap-n] = out[n] - out[n-rngTap]
	}
	for n := rngLen - rngTap + 1; n <= rngLen; n++ { // words 606..334
		vec[2*rngLen-rngTap-n] = out[n] - out[n-rngTap]
	}
	for n := 1; n <= rngTap; n++ { // words 333..61; their taps are words 606..334
		vec[rngLen-rngTap-n] = out[n] - vec[rngLen-n]
	}
	for i := range rngCooked {
		rngCooked[i] = vec[i] ^ rawWord(1, i)
	}
}

// rawWord is register word i for Lehmer state x0, before rngCooked is mixed in.
func rawWord(x0 uint64, i int) int64 {
	a := lehmerJump[i] * x0 % lehmerM // all three factors are below 2^31
	b := a * lehmerA % lehmerM
	c := b * lehmerA % lehmerM
	return int64(a)<<40 ^ int64(b)<<20 ^ int64(c)
}

// noiseSource is a rand.Source64 whose stream for a seed is math/rand's.
// Each of the first 607 draws seeds the one or two register words it reads.
type noiseSource struct {
	x0        uint64 // Lehmer state the register is seeded from
	drawn     int    // draws since Seed, saturating at rngLen
	tap, feed int
	vec       [rngLen]int64
}

func (s *noiseSource) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311 // math/rand's stand-in for the Lehmer fixed point
	}
	s.x0, s.drawn, s.tap, s.feed = uint64(seed), 0, 0, rngLen-rngTap
}

func (s *noiseSource) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
	a, b := s.vec[s.feed], s.vec[s.tap]
	if s.drawn < rngLen {
		// feed visits every word once in 607 draws, so this is its first
		// visit; tap's word stays unseeded until feed has come round to
		// where tap started, 273 draws in.
		a = rawWord(s.x0, s.feed) ^ rngCooked[s.feed]
		if s.drawn < rngTap {
			b = rawWord(s.x0, s.tap) ^ rngCooked[s.tap]
		}
		s.drawn++
	}
	x := a + b
	s.vec[s.feed] = x
	return uint64(x)
}

func (s *noiseSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// noisePool recycles generators, so that a measurement allocates none.
var noisePool = sync.Pool{New: func() any { return rand.New(new(noiseSource)) }}

// noiseFor returns math/rand's stream for the seed derived from one
// measurement's identity, so that campaigns are reproducible regardless of
// execution order. The caller puts it back in noisePool after its last draw.
func noiseFor(base, kind, a, b uint64) *rand.Rand {
	h := base ^ kind*0x9e3779b97f4a7c15 ^ a*0xbf58476d1ce4e5b9 ^ b*0x94d049bb133111eb
	h ^= h >> 31
	rng := noisePool.Get().(*rand.Rand)
	rng.Seed(int64(h))
	return rng
}
