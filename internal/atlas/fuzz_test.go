package atlas

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"math/rand"
	"slices"
	"testing"

	"inano/internal/cluster"
	"inano/internal/netsim"
)

// FuzzAtlasDecode feeds both atlas doors arbitrary bytes; see checkAtlasDecode.
// The seed corpus is atlasSeeds.
func FuzzAtlasDecode(f *testing.F) {
	for _, seed := range atlasSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkAtlasDecode(t, data) })
}

// atlasSeeds holds real encoded atlases (the mutation starting points), a
// valid header with garbage sections, torn prefixes of a valid encoding, and
// the hostile streams of hostileAtlases.
func atlasSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for _, seed := range []int64{1, 2} {
		a, _, _ := buildTestAtlas(tb, seed, 0)
		var buf bytes.Buffer
		if err := a.Encode(&buf); err != nil {
			tb.Fatal(err)
		}
		raw := buf.Bytes()
		seeds = append(seeds, raw, raw[:len(raw)/2], raw[:16]) // whole, a torn download, a header
	}
	seeds = append(seeds, []byte{}, []byte("INANOATL"), []byte("INANOATL\x01junkjunkjunk"))
	seeds = append(seeds, rawAtlas(tb, wireFixture(), nil, nil), rawAtlas(tb, offGraphFixture(), nil, nil))
	for _, h := range hostileAtlases(tb) {
		seeds = append(seeds, h.raw)
	}
	return seeds
}

// checkAtlasDecode holds the atlas doors to one input: neither may panic,
// and they answer alike — both reject it, or both accept it and DecodeFlat's
// Flat is the one Compile makes of Decode's Atlas (see decodeBothWays). An
// accepted atlas also survives a re-encode/re-decode round trip. It reports
// whether the input was accepted.
func checkAtlasDecode(t *testing.T, data []byte) bool {
	if !decodeBothWays(t, data) {
		return false // rejected by both: fine, as long as neither panicked
	}
	a, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// Anything the decoder accepts must re-encode and decode cleanly.
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatalf("accepted atlas failed to re-encode: %v", err)
	}
	b, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-encoded atlas failed to decode: %v", err)
	}
	if b.Day != a.Day || b.NumClusters != a.NumClusters || len(b.Links) != len(a.Links) {
		t.Fatalf("round trip changed shape: day %d->%d, clusters %d->%d, links %d->%d",
			a.Day, b.Day, a.NumClusters, b.NumClusters, len(a.Links), len(b.Links))
	}
	return true
}

// rawDelta hand-assembles an encoded delta over the base base names, whose
// keyed UpLinks and AddTuples and whose index lists are written as given —
// Encode sorts what it writes, keeps one upsert a key and pairs each link
// with its reverse, so this is the only way to a stream whose lists come
// unsorted, repeated, or with both directions of a link written out.
func rawDelta(tb testing.TB, base baseName, toDay uint64, upLinks []Link, refs *deltaRefs, addTuples []uint64) []byte {
	tb.Helper()
	raw := rawDeltaBytes(tb, base, toDay, upLinks, refs, addTuples)
	if _, err := DecodeDelta(bytes.NewReader(raw)); err != nil {
		tb.Fatalf("hand-assembled delta does not decode: %v", err)
	}
	return raw
}

// rawDeltaBytes is rawDelta without the check that the delta decodes.
func rawDeltaBytes(tb testing.TB, base baseName, toDay uint64, upLinks []Link, refs *deltaRefs, addTuples []uint64) []byte {
	tb.Helper()
	var sw sectionWriter
	sw.uvarint(deltaVersion)
	sw.uvarint(uint64(base.day))
	sw.uvarint(toDay)
	sw.uvarint(uint64(base.clusters))
	sw.fixed32(base.crc)
	linkRecords(upLinks, nil)(&sw)
	writeTable(&sw, refs.reLinks, unsplit,
		func(i int) uint64 { return zigzag(refs.reLat[i]) },
		func(i int) uint64 { return uint64(refs.rePlanes[i]) })
	writeTable(&sw, refs.delLinks, unsplit)
	sw.uvarint(0) // UpLoss
	writeTable(&sw, refs.delLoss, unsplit)
	writeTable(&sw, addTuples, splitTriple)
	writeTable(&sw, refs.delTuples, unsplit)
	sw.uvarint(0) // UpAdjust
	sw.uvarint(0) // DelAdjust
	sw.uvarint(0) // AddClusterAS
	sw.uvarint(0) // UpPrefixCluster
	sw.uvarint(0) // DelPrefixCluster
	sw.uvarint(0) // UpIfaceCluster
	sw.uvarint(0) // DelIfaceCluster
	return gzipped(tb, deltaMagic, sw.buf.Bytes())
}

// gzipped compresses magic and body into one stream.
func gzipped(tb testing.TB, magic string, body []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write([]byte(magic))
	gz.Write(body)
	if err := gz.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// onBase gives a hand-built delta the base a Diff against a would: what
// Encode codes it against, and the name it carries.
func onBase(a *Atlas, d *Delta) *Delta {
	d.from = Compile(a)
	name := d.from.baseName()
	d.base = &name
	return d
}

// repeatedUpserts is a delta over day0 that upserts keys more than once and
// both directions of a link: a carried link, given twice, its reverse, and
// a new link given twice along with its reverse. The last upsert of a key is
// the one Apply keeps.
func repeatedUpserts(day0 *Atlas) *Delta {
	n := cluster.ClusterID(day0.NumClusters)
	l := day0.Links[0]
	return &Delta{ToDay: 1,
		UpLinks: []Link{
			{From: l.From, To: l.To, LatencyMS: 1, Planes: PlaneToDst},
			{From: n - 1, To: 0, LatencyMS: 3, Planes: PlaneToDst},
			{From: l.From, To: l.To, LatencyMS: 2, Planes: PlaneMask},
			{From: l.To, To: l.From, LatencyMS: 2.5, Planes: PlaneFromSrc},
			{From: 0, To: n - 1, LatencyMS: 5, Planes: PlaneToDst},
			{From: n - 1, To: 0, LatencyMS: 4, Planes: PlaneFromSrc},
		},
		DelLinks: []uint64{LinkKey(l.From, l.To), LinkKey(l.From, l.To)},
	}
}

// FuzzDeltaApply is the trust boundary of a day roll; see checkDeltaApply.
// The seed corpus is deltaSeeds.
func FuzzDeltaApply(f *testing.F) {
	base, seeds := deltaSeeds(f)
	for _, seed := range seeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkDeltaApply(t, base, data) })
}

// deltaSeeds returns the flat a delta seed applies to and the seeds: a real
// day 0 -> 1 delta, repeated and reversed upserts, IDs past the cluster
// space, keyed lists unsorted and repeated, an empty delta and no bytes at
// all; and, against the base's index spaces, a delta over a base that
// differs from it in one 3-tuple, an index one past the end of each table,
// indices repeated and indices unsorted.
func deltaSeeds(tb testing.TB) (*Flat, [][]byte) {
	day0, _, _ := buildTestAtlas(tb, 1, 0)
	day1, _, _ := buildTestAtlas(tb, 1, 1)
	n := cluster.ClusterID(day0.NumClusters)
	var seeds [][]byte
	add := func(d *Delta) {
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	add(Diff(day0, day1))
	add(onBase(day0, repeatedUpserts(day0)))
	add(onBase(day0, &Delta{ToDay: 1, // IDs at and past the end of the cluster space
		UpLinks:         []Link{{From: n, To: 0, LatencyMS: 1, Planes: 1}, {From: 0, To: n + 7, LatencyMS: 1, Planes: 1}, {From: n + 7, To: 0, LatencyMS: 2, Planes: 2}},
		UpLoss:          map[uint64]float32{LinkKey(n, 0): 0.5},
		UpPrefixCluster: map[netsim.Prefix]cluster.ClusterID{1: n, 2: n + 1000},
		UpIfaceCluster:  map[netsim.Prefix]cluster.ClusterID{3: n},
		AddClusterAS:    []netsim.ASN{7},
	}))
	other := day0.Clone() // the same day, one 3-tuple different
	for k := range other.Tuples {
		delete(other.Tuples, k)
		other.Tuples[k^1] = true
		break
	}
	add(Diff(other, day1))

	b := Compile(day0)
	name := b.baseName()
	edges, loss, tuples := b.baseEdges(), uint64(len(b.LossKeys)), uint64(len(b.Tuples))
	l := day0.Links[0]
	seeds = append(seeds,
		rawDelta(tb, name, 1, // unsorted and repeated, both directions of a link written out
			[]Link{{From: n - 1, To: 0, LatencyMS: 3, Planes: 1}, l, {From: l.To, To: l.From, LatencyMS: 1, Planes: 2}, {From: n - 1, To: 0, LatencyMS: 4, Planes: 2}},
			&deltaRefs{}, []uint64{9, 9, 5, 5}),
		rawDelta(tb, name, 0, nil, &deltaRefs{}, nil), // nothing at all, inside the day
		[]byte{},
		rawDelta(tb, name, 1, nil, &deltaRefs{reLinks: []uint64{edges}, reLat: []int64{1}, rePlanes: []uint8{1}}, nil),
		rawDelta(tb, name, 1, nil, &deltaRefs{delLinks: []uint64{edges}}, nil),
		rawDelta(tb, name, 1, nil, &deltaRefs{delLoss: []uint64{loss}}, nil),
		rawDelta(tb, name, 1, nil, &deltaRefs{delTuples: []uint64{tuples}}, nil),
		rawDelta(tb, name, 1, nil, &deltaRefs{ // every index twice
			reLinks: []uint64{2, 2}, reLat: []int64{5, -5}, rePlanes: []uint8{1, 3},
			delLinks: []uint64{3, 3}, delLoss: []uint64{0, 0}, delTuples: []uint64{4, 4},
		}, nil),
		rawDelta(tb, name, 1, nil, &deltaRefs{ // every list descending
			reLinks: []uint64{7, 2}, reLat: []int64{1, 2}, rePlanes: []uint8{1, 2},
			delLinks: []uint64{9, 3}, delLoss: []uint64{1, 0}, delTuples: []uint64{7, 1},
		}, nil))
	return Compile(day0), seeds
}

// checkDeltaApply holds a day roll to one untrusted delta: whatever
// DecodeDelta accepts, Flat.Apply and the map path (Inflate, Atlas.Apply,
// Compile) must both refuse, with a named error, or both merge into base
// without panicking — Flat.Apply into a Flat that passes Validate and
// equals, field for field, the map path's. It reports whether the delta was
// accepted.
func checkDeltaApply(t *testing.T, base *Flat, data []byte) bool {
	d, err := DecodeDelta(bytes.NewReader(data))
	if err != nil {
		return false
	}
	got, st, err := base.Apply(d)
	want, mapErr := mapPath(base, d)
	if (err == nil) != (mapErr == nil) {
		t.Fatalf("flat apply: %v; map apply: %v", err, mapErr)
	}
	if err != nil {
		if !errors.Is(err, ErrDeltaBase) && !errors.Is(err, ErrDeltaIndex) {
			t.Fatalf("refused without a named error: %v", err)
		}
		return false
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("applied flat fails Validate: %v", err)
	}
	sameFlat(t, got, want)
	if st.LinksAdded-st.LinksRemoved != got.NumEdges()-base.NumEdges() {
		t.Fatalf("stats say links +%d -%d, the table went %d -> %d", st.LinksAdded, st.LinksRemoved, base.NumEdges(), got.NumEdges())
	}
	return true
}

// TestWireMutations is the fuzzers' bodies on a seeded loop (go test -fuzz
// needs workers a plain test run does not): 2 000 rounds, each mutating one
// atlas seed and one delta seed and holding checkAtlasDecode and
// checkDeltaApply to the results. A mutation flips a few bits of the
// inflated stream, truncates it, or both, and compresses it again, so the
// parser — not the gzip checksum — meets the damage.
func TestWireMutations(t *testing.T) {
	atlases := atlasSeeds(t)
	base, deltas := deltaSeeds(t)
	rng := rand.New(rand.NewSource(31))
	var accepted [2]int
	for round := 0; round < 2000; round++ {
		if checkAtlasDecode(t, mutated(t, rng, atlases[rng.Intn(len(atlases))], atlasMagic)) {
			accepted[0]++
		}
		if checkDeltaApply(t, base, mutated(t, rng, deltas[rng.Intn(len(deltas))], deltaMagic)) {
			accepted[1]++
		}
	}
	if accepted[0] == 0 || accepted[1] == 0 || accepted[0] == 2000 || accepted[1] == 2000 {
		t.Fatalf("accepted %d mutated atlases and %d mutated deltas of 2000: the mutations miss the parser", accepted[0], accepted[1])
	}
	t.Logf("accepted %d mutated atlases and %d mutated deltas of 2000", accepted[0], accepted[1])
}

// mutated returns seed with a few of the bits behind its magic flipped, its
// body truncated, or both, compressed again. A seed that does not inflate to
// the magic is mutated as it stands.
func mutated(tb testing.TB, rng *rand.Rand, seed []byte, magic string) []byte {
	body, inflated := slices.Clone(seed), false
	if gz, err := gzip.NewReader(bytes.NewReader(seed)); err == nil {
		if all, err := io.ReadAll(gz); err == nil && bytes.HasPrefix(all, []byte(magic)) {
			body, inflated = all[len(magic):], true
		}
	}
	if len(body) == 0 {
		return seed
	}
	op := rng.Intn(3)
	if op != 1 {
		for range 1 + rng.Intn(3) {
			body[rng.Intn(len(body))] ^= 1 << rng.Intn(8)
		}
	}
	if op != 0 {
		body = body[:rng.Intn(len(body))]
	}
	if !inflated {
		return body
	}
	return gzipped(tb, magic, body)
}
