package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"runtime/debug"
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

// servedFlats returns what a peer serves from after a full load of day 0,
// after one of day 1, and after following day 0 with the delta: each
// decoded from the wire and written as INANOFL1.
func servedFlats(t testing.TB, bins [2][]byte, delta []byte) (flats [3][]byte) {
	t.Helper()
	var decoded [2]*atlas.Flat
	for day, bin := range bins {
		var err error
		if decoded[day], err = atlas.DecodeFlat(bytes.NewReader(bin)); err != nil {
			t.Fatalf("decoding day %d: %v", day, err)
		}
	}
	d, err := atlas.DecodeDelta(bytes.NewReader(delta))
	if err != nil {
		t.Fatalf("decoding delta: %v", err)
	}
	followed, _ := decoded[0].Apply(d)
	for i, f := range []*atlas.Flat{decoded[0], decoded[1], followed} {
		var buf bytes.Buffer
		if err := atlas.WriteFlat(&buf, f); err != nil {
			t.Fatal(err)
		}
		flats[i] = buf.Bytes()
	}
	return flats
}

// TestBuildGoldenBytes pins the measure -> cluster -> build pipeline to the
// byte. Every measurement's noise is math/rand's stream for a derived seed
// (package trace), the benchmark's world is Medium seed 1, and every
// paper-figure bound was tuned on these worlds: a change to the campaign,
// the clustering or the builder that moves one byte here has changed the
// world, not just its cost.
//
// The wire artifacts (day0, day1, delta) are pinned in the v4 layout:
// column-major sections, split keys, each link pair written once. The
// served forms (flat0, flat1, followed) were pinned under v3 and did not
// move when v4 replaced it — the proof that the wire change moved the
// encoding and nothing a peer serves from. A change that moves a wire pin
// but no served one has changed only the encoding; one that moves a served
// pin has changed the world or the decoders.
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
		// What a peer serves from (INANOFL1): day 0 and day 1 loaded in
		// full, and day 0 followed by the delta.
		flat0, flat1, followed artifact
	}{
		{"tiny_seed1", Tiny, 1, artifact{"c165e301", 3742}, artifact{"41e85652", 3658}, artifact{"c2062707", 1176},
			artifact{"e0d5a10a", 38792}, artifact{"738e3565", 36408}, artifact{"043d57f4", 37280}},
		{"tiny_seed2", Tiny, 2, artifact{"c51bb29d", 3807}, artifact{"30030df9", 3828}, artifact{"163966d7", 940},
			artifact{"4093831d", 39864}, artifact{"a25a1c6f", 39872}, artifact{"013fbe93", 39712}},
		{"medium_seed1", Medium, 1, artifact{"c5a16a4e", 30126}, artifact{"700d774c", 30299}, artifact{"3729da28", 7695},
			artifact{"0cd5c4b8", 306952}, artifact{"6807efcd", 305344}, artifact{"0bd70041", 307128}},
		{"medium_seed2", Medium, 2, artifact{"5004c0dd", 29487}, artifact{"2da48ab3", 29975}, artifact{"8ce6f400", 6206},
			artifact{"60e0072b", 287784}, artifact{"db3eb8c7", 289896}, artifact{"79b98f16", 289648}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.scale != Tiny && testing.Short() {
				t.Skip("medium world in -short")
			}
			bins, delta := goldenBuild(t, tc.scale, tc.seed)
			flats := servedFlats(t, bins, delta)
			for _, g := range []struct {
				what string
				got  []byte
				want artifact
			}{
				{"day 0 atlas", bins[0], tc.day0}, {"day 1 atlas", bins[1], tc.day1}, {"delta", delta, tc.delta},
				{"day 0 flat", flats[0], tc.flat0}, {"day 1 flat", flats[1], tc.flat1}, {"followed flat", flats[2], tc.followed},
			} {
				sum := sha256.Sum256(g.got)
				if got := (artifact{hex.EncodeToString(sum[:4]), len(g.got)}); got != g.want {
					t.Errorf("%s: sha256 prefix and size = %v, want %v", g.what, got, g.want)
				}
			}
		})
	}
}

// TestSetupAllocBudget bounds what one two-day set-up of the benchmark's
// world allocates, at 10 % above what it measured when the bound was set
// (86.4 MB in 575 k allocations). A campaign or builder change that brings
// back per-hop or per-trace garbage trips it.
func TestSetupAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("medium world in -short")
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector changes what is allocated")
			}
		}
	}
	const maxBytes, maxAllocs = 95_000_000, 633_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	goldenBuild(t, Medium, 1)
	runtime.ReadMemStats(&after)
	size, allocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("one set-up allocates %d B in %d allocations", size, allocs)
	if size > maxBytes || allocs > maxAllocs {
		t.Errorf("one set-up allocates %d B in %d allocations, budget %d B in %d", size, allocs, maxBytes, maxAllocs)
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
