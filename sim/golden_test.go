package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"inano/internal/atlas"
	"inano/internal/cluster"
)

// goldenBuild runs the server-side pipeline the benchmark's set-up runs —
// world, 16 vantage points + 8 client agents over every edge prefix, days
// 0 and 1 chained through one cluster registry — and returns the encoded
// atlases and the encoded day 0 -> 1 delta (diffed, like a client would
// see it, between the decoded atlases: the codec quantizes latencies).
func goldenBuild(t testing.TB, scale Scale, seed int64) (bins [2][]byte, delta []byte) {
	t.Helper()
	w := NewWorld(scale, seed)
	vps := w.VantagePoints(16 + 8)
	var decoded [2]*atlas.Atlas
	var prev *cluster.Clustering
	for day := range bins {
		c := w.Measure(CampaignOptions{Day: day, VPs: vps[:16], Targets: w.EdgePrefixes(), ClientVPs: vps[16:]})
		prev = c.Clusters(prev)
		var buf bytes.Buffer
		if err := c.BuildAtlasOver(prev).Encode(&buf); err != nil {
			t.Fatalf("encoding day %d: %v", day, err)
		}
		bins[day] = buf.Bytes()
		var err error
		if decoded[day], err = atlas.Decode(bytes.NewReader(bins[day])); err != nil {
			t.Fatalf("decoding day %d: %v", day, err)
		}
	}
	var buf bytes.Buffer
	if err := atlas.Diff(decoded[0], decoded[1]).Encode(&buf); err != nil {
		t.Fatalf("encoding delta: %v", err)
	}
	return bins, buf.Bytes()
}

// TestBuildGoldenBytes pins the measure -> cluster -> build pipeline to the
// byte. Every measurement's noise is math/rand's stream for a derived seed
// (package trace), the benchmark's world is Medium seed 1, and every
// paper-figure bound was tuned on these worlds: a change to the campaign,
// the clustering or the builder that moves one byte here has changed the
// world, not just its cost.
func TestBuildGoldenBytes(t *testing.T) {
	type artifact struct {
		sum  string // leading bytes of the SHA-256, hex
		size int
	}
	cases := []struct {
		name              string
		scale             Scale
		seed              int64
		day0, day1, delta artifact
	}{
		{"tiny_seed1", Tiny, 1, artifact{"b047643f", 5028}, artifact{"1ff5da4b", 4887}, artifact{"aefbc821", 1482}},
		{"tiny_seed2", Tiny, 2, artifact{"7b52320f", 5242}, artifact{"00e4db37", 5208}, artifact{"583afc93", 1205}},
		{"medium_seed1", Medium, 1, artifact{"9395683f", 41452}, artifact{"bb512145", 41669}, artifact{"edd739d2", 9873}},
		{"medium_seed2", Medium, 2, artifact{"aef2ca4b", 40048}, artifact{"2b52ee72", 40803}, artifact{"a5722296", 8044}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.scale != Tiny && testing.Short() {
				t.Skip("medium world in -short")
			}
			bins, delta := goldenBuild(t, tc.scale, tc.seed)
			for _, g := range []struct {
				what string
				got  []byte
				want artifact
			}{{"day 0 atlas", bins[0], tc.day0}, {"day 1 atlas", bins[1], tc.day1}, {"delta", delta, tc.delta}} {
				sum := sha256.Sum256(g.got)
				if got := (artifact{hex.EncodeToString(sum[:4]), len(g.got)}); got != g.want {
					t.Errorf("%s: sha256 prefix and size = %v, want %v", g.what, got, g.want)
				}
			}
		})
	}
}

// BenchmarkSetup is one server-side set-up of the benchmark's world, where
// the campaign and build profiles are taken (docs/performance.md, "Set-up:
// campaign and build").
func BenchmarkSetup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		goldenBuild(b, Medium, 1)
	}
}
