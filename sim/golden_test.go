package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"inano"
	"inano/internal/atlas"
	"inano/internal/cluster"
	"inano/internal/netsim"
)

// goldenBuild runs the server-side pipeline the benchmark's set-up runs —
// world, 16 vantage points + 8 client agents over every edge prefix, days
// 0 and 1 chained through one cluster registry — and returns the encoded
// atlases and the encoded day 0 -> 1 delta (diffed, like a client would
// see it, between the decoded atlases: the codec quantizes latencies),
// with the 24 vantage points and the edge prefixes they measured.
func goldenBuild(t testing.TB, scale Scale, seed int64) (bins [2][]byte, delta []byte, vps, dsts []netsim.Prefix) {
	t.Helper()
	w := NewWorld(scale, seed)
	vps = w.VantagePoints(16 + 8)
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
	return bins, buf.Bytes(), vps, w.EdgePrefixes()
}

// servedFlats returns what a peer serves from after a full load of day 0,
// after one of day 1, and after following day 0 with the delta: each
// decoded from the wire and written as a flat file.
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
	followed, _, err := decoded[0].Apply(d)
	if err != nil {
		t.Fatalf("applying delta: %v", err)
	}
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
// The atlases (day0, day1) are pinned in the v6 layout: column-major
// sections, split keys, each link pair written once, the 3-tuples,
// preferences and providers as indices into the relationship graph,
// attachment values as differences, and, coded against what precedes them,
// the origins and degrees as their exceptions and each link's far end as
// the slot of its AS among its near end's AS and that AS's neighbours, and
// its rank among that AS's clusters. They were re-pinned for v6
// with the delta and served pins unmoved. The delta is pinned in the v6 layout,
// coded against its base: the base's name, and each removal and each
// re-annotation of a base link as an index into the base's tables. Its
// hashes were re-pinned for v6 and nothing else moved. The served forms
// (flat0, flat1, followed) were pinned under v3 and did not move when v4,
// v5, v6 or delta v6 replaced it — the proof that a wire change moved the
// encoding and nothing a peer serves from. They were re-pinned once, when the flat file moved to version 2
// (four derivable per-edge sections dropped), with the wire pins and
// TestAnswerDigest unmoved. A change that
// moves a wire pin but no served one has changed only the encoding; one
// that moves a served pin has changed the world, the decoders or the flat
// layout, and TestAnswerDigest tells which.
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
		// What a peer serves from (the flat file): day 0 and day 1 loaded
		// in full, and day 0 followed by the delta.
		flat0, flat1, followed artifact
	}{
		{"tiny_seed1", Tiny, 1, artifact{"c90a9bef", 2699}, artifact{"d94e7b61", 2659}, artifact{"cfb2a6ec", 843},
			artifact{"ac40d99d", 30512}, artifact{"6c8ccdcc", 28704}, artifact{"6defae10", 29576}},
		{"tiny_seed2", Tiny, 2, artifact{"90fd9b64", 2786}, artifact{"779502f4", 2850}, artifact{"518ca8e8", 700},
			artifact{"3884fc86", 30704}, artifact{"eb8dc8b4", 30792}, artifact{"ed98101f", 30632}},
		{"medium_seed1", Medium, 1, artifact{"d99ec3b5", 18923}, artifact{"64666724", 19173}, artifact{"26cce83a", 5185},
			artifact{"4da91065", 244072}, artifact{"45fea50e", 242128}, artifact{"b3327c8b", 243912}},
		{"medium_seed2", Medium, 2, artifact{"bde6bff2", 18510}, artifact{"1bd2b37a", 18910}, artifact{"539b0503", 4389},
			artifact{"44dbd0ff", 226520}, artifact{"a77c36a6", 228088}, artifact{"e61546dd", 227840}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.scale != Tiny && testing.Short() {
				t.Skip("medium world in -short")
			}
			bins, delta, _, _ := goldenBuild(t, tc.scale, tc.seed)
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

// TestAnswerDigest pins what a peer answers, apart from the bytes it
// serves from: a SHA-256 over the answer to every (vantage point, edge
// prefix) query of each golden world, for day 0 and day 1 loaded in full
// and for day 0 followed by the delta. Each state is reached two ways —
// inano.Load (then ApplyDelta), and a reload of the served flat file — and
// both must give the pinned digest. A change to a file format may re-pin
// TestBuildGoldenBytes; a digest that moves with it has changed answers.
func TestAnswerDigest(t *testing.T) {
	cases := []struct {
		name                 string
		scale                Scale
		seed                 int64
		day0, day1, followed string // leading bytes of the SHA-256, hex
	}{
		{"tiny_seed1", Tiny, 1, "5e574909", "bf8ec9f2", "3365204b"},
		{"tiny_seed2", Tiny, 2, "c4cb4fa8", "858fb81a", "e8b6dabd"},
		{"medium_seed1", Medium, 1, "eb3ffdae", "dc6540b8", "8593bf86"},
		{"medium_seed2", Medium, 2, "625e16b4", "3f874110", "bdeb4838"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.scale != Tiny && testing.Short() {
				t.Skip("medium world in -short")
			}
			bins, delta, vps, dsts := goldenBuild(t, tc.scale, tc.seed)
			var loaded [3]*inano.Client
			for day, bin := range bins {
				c, err := inano.Load(bytes.NewReader(bin))
				if err != nil {
					t.Fatalf("loading day %d: %v", day, err)
				}
				loaded[day] = c
			}
			followed, err := inano.Load(bytes.NewReader(bins[0]))
			if err != nil {
				t.Fatal(err)
			}
			if err := followed.ApplyDelta(bytes.NewReader(delta)); err != nil {
				t.Fatal(err)
			}
			loaded[2] = followed
			flats := servedFlats(t, bins, delta)
			for i, want := range []string{tc.day0, tc.day1, tc.followed} {
				state := []string{"day 0", "day 1", "day 0 + delta"}[i]
				f, err := atlas.ReadFlat(flats[i])
				if err != nil {
					t.Fatalf("%s: reading the served flat: %v", state, err)
				}
				viaLoad := answerDigest(loaded[i], vps, dsts)
				viaFlat := answerDigest(inano.FromFlat(f), vps, dsts)
				if viaLoad != want || viaFlat != want {
					t.Errorf("%s: answer digest %s through Load, %s through the flat file, want %s", state, viaLoad, viaFlat, want)
				}
			}
		})
	}
}

// answerDigest hashes c's answer from every vantage point to every
// destination, in order: found, then RTT and loss at wire quantisation
// (0.01 ms, 0.01 %), then the forward and the reverse AS path. It returns
// the leading four bytes of the SHA-256, hex.
func answerDigest(c *inano.Client, vps, dsts []netsim.Prefix) string {
	h := sha256.New()
	var rec []byte
	snap := c.Snapshot()
	for _, src := range vps {
		for _, dst := range dsts {
			p, _ := snap.Query(context.Background(), src, dst)
			rec = rec[:0]
			if p.Found {
				rec = append(rec, 1)
			} else {
				rec = append(rec, 0)
			}
			rec = binary.AppendUvarint(rec, uint64(math.Round(p.RTTMS*100)))
			rec = binary.AppendUvarint(rec, uint64(math.Round(p.LossRate*10000)))
			for _, path := range [][]netsim.ASN{p.Fwd.ASPath, p.Rev.ASPath} {
				rec = binary.AppendUvarint(rec, uint64(len(path)))
				for _, as := range path {
					rec = binary.AppendUvarint(rec, uint64(as))
				}
			}
			h.Write(rec)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:4])
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
