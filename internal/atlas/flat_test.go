package atlas

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"inano/internal/cluster"
	"inano/internal/netsim"
)

// flatFixture compiles a realistic built atlas, with residual corrections
// added so the Adjust tables are exercised.
func flatFixture(t testing.TB, seed int64) (*Atlas, *Flat) {
	t.Helper()
	a, _, _ := buildTestAtlas(t, seed, 0)
	i := 0
	for p := range a.PrefixCluster {
		switch i % 3 {
		case 0:
			a.GlobalAdjustMS[p] = float32(5 + i%7)
		case 1:
			a.AdjustMS[p] = float32(-(3 + i%5))
		case 2:
			a.GlobalAdjustMS[p] = -2.5
			a.AdjustMS[p] = 1.25
		}
		i++
		if i >= 12 {
			break
		}
	}
	return a, Compile(a)
}

// TestFlatCompileMatchesMaps checks every flat accessor against the map
// atlas it was compiled from, over all present keys plus guaranteed
// misses.
func TestFlatCompileMatchesMaps(t *testing.T) {
	a, f := flatFixture(t, 21)
	if err := f.Validate(); err != nil {
		t.Fatalf("compiled flat fails validation: %v", err)
	}
	if int(f.Day) != a.Day || int(f.NumClusters) != a.NumClusters {
		t.Fatalf("flat header (%d, %d) != atlas (%d, %d)", f.Day, f.NumClusters, a.Day, a.NumClusters)
	}
	for p, cl := range a.PrefixCluster {
		if got, ok := f.ClusterOf(p); !ok || got != cl {
			t.Fatalf("ClusterOf(%d) = (%d, %v), want %d", p, got, ok, cl)
		}
	}
	if _, ok := f.ClusterOf(netsim.Prefix(0xFFFFFF)); ok {
		t.Fatal("ClusterOf hit on an absent prefix")
	}
	for p, as := range a.PrefixAS {
		if got := f.OriginAS(p); got != as {
			t.Fatalf("OriginAS(%d) = %d, want %d", p, got, as)
		}
	}
	for p, cl := range a.IfaceCluster {
		if got, ok := f.IfaceClusterOf(p); !ok || got != cl {
			t.Fatalf("IfaceClusterOf(%d) = (%d, %v), want %d", p, got, ok, cl)
		}
	}
	for k := range a.Tuples {
		x, y, z := UnpackTriple(k)
		if !f.HasTuple(x, y, z) {
			t.Fatalf("HasTuple(%d,%d,%d) missing", x, y, z)
		}
	}
	for k := range a.Prefs {
		x, y, z := UnpackTriple(k)
		if !f.Prefers(x, y, z) {
			t.Fatalf("Prefers(%d,%d,%d) missing", x, y, z)
		}
	}
	if f.HasTuple(1, 2, 0xFFFF) || f.Prefers(1, 2, 0xFFFF) {
		t.Fatal("tuple/pref hit on an absent triple")
	}
	// Relationship parity over all AS pairs that appear on links.
	for _, l := range a.Links {
		fa, ta := a.ClusterAS[l.From], a.ClusterAS[l.To]
		if got, want := f.RelOf(fa, ta), a.RelOf(fa, ta); got != want {
			t.Fatalf("RelOf(%d,%d) = %v, want %v", fa, ta, got, want)
		}
	}
	for origin, provs := range a.Providers {
		for _, up := range provs {
			if !f.ProviderCheck(origin, up) {
				t.Fatalf("ProviderCheck(%d, %d) rejected a recorded provider", origin, up)
			}
		}
		if len(provs) > 0 && f.ProviderCheck(origin, netsim.ASN(0x1FFFFE)) {
			t.Fatalf("ProviderCheck(%d, bogus) accepted a non-provider despite provider data", origin)
		}
	}
	if !f.ProviderCheck(netsim.ASN(0x1FFFFD), 1) {
		t.Fatal("ProviderCheck without provider data must not enforce")
	}
	// Residual corrections: the flat table carries global and local terms
	// key-aligned.
	seen := map[netsim.Prefix]bool{}
	for p, g := range a.GlobalAdjustMS {
		gg, ll, ok := f.Adjust(p)
		if !ok || gg != g || ll != a.AdjustMS[p] {
			t.Fatalf("Adjust(%d) = (%v,%v,%v), want (%v,%v,true)", p, gg, ll, ok, g, a.AdjustMS[p])
		}
		seen[p] = true
	}
	for p, l := range a.AdjustMS {
		if seen[p] {
			continue
		}
		gg, ll, ok := f.Adjust(p)
		if !ok || gg != 0 || ll != l {
			t.Fatalf("Adjust(%d) = (%v,%v,%v), want (0,%v,true)", p, gg, ll, ok, l)
		}
	}
	edgesMatchMaps(t, a, f)
}

// edgesMatchMaps holds f's link table to the map atlas it stands for, with
// nothing of Compile in between: walking a.Links in order fills every CSR
// bucket front to back (a bucket keeps the order links come in, which is
// what breaks ties between equal-cost edges), and each edge carries its
// link's annotations, its loss, and the flags the maps imply for its two
// ASes. What else the search reads of those ASes the engine derives
// (core's TestEngineDerivesEdgeFacts holds it to the maps).
func edgesMatchMaps(t testing.TB, a *Atlas, f *Flat) {
	t.Helper()
	if f.NumEdges() != len(a.Links) {
		t.Fatalf("flat has %d edges, atlas has %d links", f.NumEdges(), len(a.Links))
	}
	filled := make([]uint32, f.NumClusters)
	for _, l := range a.Links {
		ei := f.EdgeStart[l.To] + filled[l.To]
		filled[l.To]++
		if ei >= f.EdgeStart[l.To+1] || f.EdgeFrom[ei] != l.From {
			t.Fatalf("link %d->%d is not edge %d of its bucket", l.From, l.To, filled[l.To]-1)
		}
		if f.EdgeLat[ei] != l.LatencyMS || f.EdgePlanes[ei] != l.Planes {
			t.Fatalf("edge %d->%d annotation mismatch", l.From, l.To)
		}
		if f.EdgeLoss[ei] != a.Loss[LinkKey(l.From, l.To)] {
			t.Fatalf("edge %d->%d loss %v, want %v", l.From, l.To, f.EdgeLoss[ei], a.Loss[LinkKey(l.From, l.To)])
		}
		fa, ta := a.ClusterAS[l.From], a.ClusterAS[l.To]
		wantSame := fa == ta
		if (f.EdgeFlags[ei]&EdgeSameAS != 0) != wantSame {
			t.Fatalf("edge %d->%d sameAS flag mismatch", l.From, l.To)
		}
		wantLate := !wantSame && a.LateExit[netsim.ASPairKey(fa, ta)]
		if (f.EdgeFlags[ei]&EdgeLate != 0) != wantLate {
			t.Fatalf("edge %d->%d late flag mismatch", l.From, l.To)
		}
	}
}

// TestFlatInflateRoundTrip checks Compile -> Inflate reconstructs every
// serving dataset of the original atlas (the bridge that lets a
// flat-started daemon still apply deltas).
func TestFlatInflateRoundTrip(t *testing.T) {
	a, f := flatFixture(t, 22)
	b := f.Inflate()
	if b.Day != a.Day || b.NumClusters != a.NumClusters {
		t.Fatalf("inflated header (%d,%d) != (%d,%d)", b.Day, b.NumClusters, a.Day, a.NumClusters)
	}
	if len(b.Links) != len(a.Links) {
		t.Fatalf("inflated %d links, want %d", len(b.Links), len(a.Links))
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			t.Fatalf("link %d: %+v != %+v", i, b.Links[i], a.Links[i])
		}
	}
	cmpU64F32 := func(name string, x, y map[uint64]float32) {
		if len(x) != len(y) {
			t.Fatalf("%s: %d entries, want %d", name, len(y), len(x))
		}
		for k, v := range x {
			if y[k] != v {
				t.Fatalf("%s[%d] = %v, want %v", name, k, y[k], v)
			}
		}
	}
	cmpU64F32("Loss", a.Loss, b.Loss)
	if len(b.PrefixCluster) != len(a.PrefixCluster) || len(b.IfaceCluster) != len(a.IfaceCluster) ||
		len(b.PrefixAS) != len(a.PrefixAS) || len(b.ASDegree) != len(a.ASDegree) ||
		len(b.Tuples) != len(a.Tuples) || len(b.Prefs) != len(a.Prefs) ||
		len(b.Rels) != len(a.Rels) || len(b.LateExit) != len(a.LateExit) {
		t.Fatal("inflated dataset cardinality mismatch")
	}
	for p, cl := range a.PrefixCluster {
		if b.PrefixCluster[p] != cl {
			t.Fatalf("PrefixCluster[%d] lost", p)
		}
	}
	for k, r := range a.Rels {
		if b.Rels[k] != r {
			t.Fatalf("Rels[%d] = %v, want %v", k, b.Rels[k], r)
		}
	}
	for origin, provs := range a.Providers {
		if len(b.Providers[origin]) != len(provs) {
			t.Fatalf("Providers[%d] has %d entries, want %d", origin, len(b.Providers[origin]), len(provs))
		}
		got := map[netsim.ASN]bool{}
		for _, up := range b.Providers[origin] {
			got[up] = true
		}
		for _, up := range provs {
			if !got[up] {
				t.Fatalf("Providers[%d] lost %d", origin, up)
			}
		}
	}
	for p, v := range a.GlobalAdjustMS {
		if b.GlobalAdjustMS[p] != v {
			t.Fatalf("GlobalAdjustMS[%d] = %v, want %v", p, b.GlobalAdjustMS[p], v)
		}
	}
	for p, v := range a.AdjustMS {
		if b.AdjustMS[p] != v {
			t.Fatalf("AdjustMS[%d] = %v, want %v", p, b.AdjustMS[p], v)
		}
	}
	// And the round trip is a fixed point: compiling the inflated atlas
	// reproduces the same serialized bytes.
	var w1, w2 bytes.Buffer
	if err := WriteFlat(&w1, f); err != nil {
		t.Fatal(err)
	}
	if err := WriteFlat(&w2, Compile(b)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
		t.Fatal("Compile(Inflate(f)) serializes differently from f")
	}
}

// TestFlatCodecRoundTrip checks WriteFlat -> ReadFlat is exact (compared
// via re-serialization, which covers every field).
func TestFlatCodecRoundTrip(t *testing.T) {
	_, f := flatFixture(t, 23)
	var buf bytes.Buffer
	if err := WriteFlat(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlat(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := WriteFlat(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("decode -> re-encode does not reproduce the file")
	}
}

// TestFlatOpenMmap checks the mmap'd (zero-copy on little-endian hosts)
// open path serves the same data as the in-memory form.
func TestFlatOpenMmap(t *testing.T) {
	a, f := flatFixture(t, 24)
	path := filepath.Join(t.TempDir(), "atlas.flat")
	fd, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFlat(fd, f); err != nil {
		t.Fatal(err)
	}
	if err := fd.Close(); err != nil {
		t.Fatal(err)
	}
	ff, err := OpenFlat(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ff.Close()
	var orig, mapped bytes.Buffer
	if err := WriteFlat(&orig, f); err != nil {
		t.Fatal(err)
	}
	if err := WriteFlat(&mapped, ff.Flat); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig.Bytes(), mapped.Bytes()) {
		t.Fatal("mapped flat differs from the one written")
	}
	for p, cl := range a.PrefixCluster {
		if got, ok := ff.ClusterOf(p); !ok || got != cl {
			t.Fatalf("mapped ClusterOf(%d) = (%d,%v), want %d", p, got, ok, cl)
		}
	}
	if err := ff.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFlatOpenRejectsCorruption flips one payload byte and checks the
// checksum catches it; truncations and bad magic are rejected too.
func TestFlatOpenRejectsCorruption(t *testing.T) {
	_, f := flatFixture(t, 25)
	var buf bytes.Buffer
	if err := WriteFlat(&buf, f); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	flip := append([]byte(nil), good...)
	flip[len(flip)-5] ^= 0x40
	if _, err := ReadFlat(flip); err == nil {
		t.Fatal("flipped payload byte not caught by checksum")
	}
	if _, err := ReadFlat(good[:len(good)/2]); err == nil {
		t.Fatal("truncated file decoded")
	}
	if _, err := ReadFlat([]byte("INANOXX9 not a flat file at all.....")); err == nil {
		t.Fatal("bad magic decoded")
	}
	bad := append([]byte(nil), good...)
	bad[8] = 99 // unsupported version
	if _, err := ReadFlat(bad); err == nil {
		t.Fatal("unsupported version decoded")
	}

	path := filepath.Join(t.TempDir(), "corrupt.flat")
	if err := os.WriteFile(path, flip, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFlat(path, true); err == nil {
		t.Fatal("OpenFlat accepted a corrupt file")
	}
}

// TestFlatRefusesVersion1 checks that a file under a version 1 header —
// the layout with four more per-edge sections — is refused by both
// readers with the version named, and that WriteFlat writes version 2.
func TestFlatRefusesVersion1(t *testing.T) {
	_, f := flatFixture(t, 25)
	var buf bytes.Buffer
	if err := WriteFlat(&buf, f); err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(buf.Bytes()[8:]); v != 2 {
		t.Fatalf("WriteFlat wrote version %d, want 2", v)
	}
	old := slices.Clone(buf.Bytes())
	binary.LittleEndian.PutUint32(old[8:], 1)
	const want = "unsupported version 1 (want 2)"
	if _, err := ReadFlat(old); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ReadFlat of a version 1 file: %v, want an error containing %q", err, want)
	}
	path := filepath.Join(t.TempDir(), "v1.flat")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFlat(path, true); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("OpenFlat of a version 1 file: %v, want an error containing %q", err, want)
	}
}

// TestFlatValidateCatchesStructuralDamage mutates a valid Flat in ways a
// checksum cannot catch (the file was written that way) and checks the
// structural validator does, on the Flat and on the file written from it.
func TestFlatValidateCatchesStructuralDamage(t *testing.T) {
	mk := func() *Flat { _, f := flatFixture(t, 26); return f }
	cases := []struct {
		name string
		mut  func(*Flat)
	}{
		{"non-monotone CSR", func(f *Flat) { f.EdgeStart[1] = f.EdgeStart[len(f.EdgeStart)-1] + 7 }},
		{"edge source out of range", func(f *Flat) { f.EdgeFrom[0] = cluster.ClusterID(f.NumClusters) }},
		{"unsorted prefix keys", func(f *Flat) {
			f.PrefixClKeys[0], f.PrefixClKeys[1] = f.PrefixClKeys[1], f.PrefixClKeys[0]
		}},
		{"unsorted tuple keys", func(f *Flat) { f.Tuples[0] = f.Tuples[len(f.Tuples)-1] + 1 }},
		{"prefix value out of range", func(f *Flat) { f.PrefixClVals[0] = cluster.ClusterID(-2) }},
		{"table length mismatch", func(f *Flat) { f.PrefixClVals = f.PrefixClVals[:len(f.PrefixClVals)-1] }},
		{"edge array length mismatch", func(f *Flat) { f.EdgeLat = f.EdgeLat[:len(f.EdgeLat)-1] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := mk()
			if err := f.Validate(); err != nil {
				t.Fatalf("fixture invalid before mutation: %v", err)
			}
			tc.mut(f)
			if err := f.Validate(); err == nil {
				t.Fatal("validator missed the damage")
			}
			var buf bytes.Buffer
			if err := WriteFlat(&buf, f); err != nil {
				t.Fatal(err)
			}
			if checkFlatFile(t, "written", buf.Bytes()) {
				t.Fatal("ReadFlat accepted the damaged file")
			}
		})
	}
}

// TestFlatMutations is a fuzz body on a seeded loop (go test -fuzz needs
// workers a plain test run does not): 2 000 rounds, each flipping a few bits
// of a written flat file or truncating it, then rewriting the header's
// payload length and checksum so the damage meets parseFlat and Validate
// rather than the checksum. ReadFlat must refuse each file, or return a
// Flat that serves it without a panic.
func TestFlatMutations(t *testing.T) {
	_, f := flatFixture(t, 27)
	var buf bytes.Buffer
	if err := WriteFlat(&buf, f); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	accepted := 0
	for seed := int64(0); seed < 2000; seed++ {
		if checkFlatFile(t, fmt.Sprintf("seed %d", seed), mutateFlat(good, seed)) {
			accepted++
		}
	}
	if accepted == 0 || accepted == 2000 {
		t.Fatalf("accepted %d mutated files of 2000: the mutations miss the parser", accepted)
	}
	t.Logf("accepted %d mutated files of 2000", accepted)
}

// mutateFlat returns a copy of file with one to three payload bits flipped
// or its payload truncated, and its header's payload length and checksum
// rewritten to match.
func mutateFlat(file []byte, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := slices.Clone(file)
	if rng.Intn(2) == 0 {
		for range 1 + rng.Intn(3) {
			out[flatHeaderSize+rng.Intn(len(out)-flatHeaderSize)] ^= 1 << rng.Intn(8)
		}
	} else {
		out = out[:flatHeaderSize+rng.Intn(len(out)-flatHeaderSize)]
	}
	return resealFlat(out)
}

// resealFlat rewrites a flat file's header to its payload's length and
// checksum.
func resealFlat(file []byte) []byte {
	payload := file[flatHeaderSize:]
	binary.LittleEndian.PutUint64(file[16:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(file[24:], crc32.ChecksumIEEE(payload))
	return file
}

// checkFlatFile reads one flat file and reports whether ReadFlat accepted
// it. An accepted Flat must resolve every prefix key of its tables to that
// key's own value and walk every EdgeStart bucket across the edge arrays;
// a panic on the way fails the test, naming the file what.
func checkFlatFile(t *testing.T, what string, data []byte) bool {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: panic: %v", what, r)
		}
	}()
	f, err := ReadFlat(data)
	if err != nil {
		return false
	}
	for i, p := range f.PrefixClKeys {
		if cl, ok := f.ClusterOf(p); !ok || cl != f.PrefixClVals[i] {
			t.Fatalf("%s: ClusterOf(%d) = (%d,%v), want %d", what, p, cl, ok, f.PrefixClVals[i])
		}
	}
	for i, p := range f.PrefixASKeys {
		if as := f.OriginAS(p); as != f.PrefixASVals[i] {
			t.Fatalf("%s: OriginAS(%d) = %d, want %d", what, p, as, f.PrefixASVals[i])
		}
	}
	for i, p := range f.IfaceKeys {
		if cl, ok := f.IfaceClusterOf(p); !ok || cl != f.IfaceVals[i] {
			t.Fatalf("%s: IfaceClusterOf(%d) = (%d,%v), want %d", what, p, cl, ok, f.IfaceVals[i])
		}
	}
	for i, p := range f.AdjustKeys {
		g, l, ok := f.Adjust(p)
		if !ok || math.Float32bits(g) != math.Float32bits(f.AdjustGlobal[i]) || math.Float32bits(l) != math.Float32bits(f.AdjustLocal[i]) {
			t.Fatalf("%s: Adjust(%d) = (%v,%v,%v), want (%v,%v)", what, p, g, l, ok, f.AdjustGlobal[i], f.AdjustLocal[i])
		}
	}
	for w := range f.NumClusters {
		to := cluster.ClusterID(w)
		for ei := f.EdgeStart[w]; ei < f.EdgeStart[w+1]; ei++ {
			from := f.EdgeFrom[ei]
			if _, ok := f.LinkAt(from, to); !ok {
				t.Fatalf("%s: edge %d into cluster %d not found by LinkAt", what, ei, w)
			}
			_ = f.ClusterAS[from] + f.ClusterAS[to]
			_ = f.EdgeLat[ei] + f.EdgeLoss[ei]
			_ = f.EdgePlanes[ei] + f.EdgeFlags[ei]
		}
	}
	return true
}

// TestFlatRandomAtlasAccessorProperty cross-checks flat lookups against
// random map atlases (the delta property-test generator), including keys
// guaranteed absent.
func TestFlatRandomAtlasAccessorProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 25; round++ {
		a := makeRandomAtlas(rng, round)
		f := Compile(a)
		if err := f.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for p := netsim.Prefix(90); p < 320; p++ {
			wantCl, wantOK := a.PrefixCluster[p]
			if got, ok := f.ClusterOf(p); ok != wantOK || (ok && got != wantCl) {
				t.Fatalf("round %d: ClusterOf(%d) = (%d,%v), want (%d,%v)", round, p, got, ok, wantCl, wantOK)
			}
		}
		for x := netsim.ASN(1); x <= 10; x++ {
			for y := netsim.ASN(1); y <= 10; y++ {
				for z := netsim.ASN(1); z <= 10; z++ {
					if f.HasTuple(x, y, z) != a.HasTuple(x, y, z) {
						t.Fatalf("round %d: HasTuple(%d,%d,%d) mismatch", round, x, y, z)
					}
				}
			}
		}
	}
}

// TestFlatCompileSkipsCorruptLinks mirrors the engine's defensive handling
// of out-of-range link rows.
func TestFlatCompileSkipsCorruptLinks(t *testing.T) {
	a := indexAtlas(4)
	a.Links = append(a.Links, Link{From: 99, To: 0, LatencyMS: 1, Planes: PlaneToDst})
	a.Links = append(a.Links, Link{From: 0, To: -3, LatencyMS: 1, Planes: PlaneToDst})
	f := Compile(a)
	if f.NumEdges() != 4 {
		t.Fatalf("compiled %d edges, want 4 (corrupt rows skipped)", f.NumEdges())
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFlatAdjustZeroGlobal checks a max-magnitude float latency doesn't
// break the writer (NaN/Inf never reach the codec in practice, but the
// writer must round-trip whatever Compile produces).
func TestFlatExtremeLatencyRoundTrip(t *testing.T) {
	a := indexAtlas(2)
	a.Links[0].LatencyMS = math.MaxFloat32
	f := Compile(a)
	var buf bytes.Buffer
	if err := WriteFlat(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlat(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.EdgeLat[0] != math.MaxFloat32 && got.EdgeLat[1] != math.MaxFloat32 {
		t.Fatal("extreme latency lost in round trip")
	}
}

// TestSeekMatchesSearch holds seek to a binary search over the whole
// table, for keys sought in ascending order, in any order, and absent.
func TestSeekMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := range 200 {
		keys := make([]uint64, rng.Intn(40))
		for i := range keys {
			keys[i] = uint64(rng.Intn(100))
		}
		slices.Sort(keys)
		keys = slices.Compact(keys)
		asked := make([]uint64, rng.Intn(60))
		for i := range asked {
			asked[i] = uint64(rng.Intn(110))
		}
		if round%2 == 0 {
			slices.Sort(asked)
		}
		at := 0
		for _, k := range asked {
			want, _ := slices.BinarySearch(keys, k)
			if at = seek(keys, at, k); at != want {
				t.Fatalf("round %d: seek(%v, %d) = %d, want %d", round, keys, k, at, want)
			}
		}
	}
}
