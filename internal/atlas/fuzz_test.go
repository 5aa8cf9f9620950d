package atlas

import (
	"bytes"
	"compress/gzip"
	"testing"

	"inano/internal/cluster"
	"inano/internal/netsim"
)

// FuzzAtlasDecode feeds both atlas doors arbitrary bytes. Neither may
// panic, and they answer alike: both reject the input, or both accept it
// and DecodeFlat's Flat is the one Compile makes of Decode's Atlas (see
// decodeBothWays); an accepted atlas also survives a re-encode/re-decode
// round trip. The seed corpus holds real encoded atlases (the mutation
// starting points), a valid header with garbage sections, torn prefixes of
// a valid encoding, and the hostile streams of hostileAtlases.
func FuzzAtlasDecode(f *testing.F) {
	for _, seed := range []int64{1, 2} {
		a, _, _ := buildTestAtlas(f, seed, 0)
		var buf bytes.Buffer
		if err := a.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		raw := buf.Bytes()
		f.Add(raw)
		f.Add(raw[:len(raw)/2]) // torn download
		f.Add(raw[:16])
	}
	f.Add([]byte{})
	f.Add([]byte("INANOATL"))
	f.Add([]byte("INANOATL\x01junkjunkjunk"))
	f.Add(rawAtlas(f, wireFixture(), nil, nil))
	for _, h := range hostileAtlases(f) {
		f.Add(h.raw)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if !decodeBothWays(t, data) {
			return // rejected by both: fine, as long as neither panicked
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
	})
}

// rawDelta hand-assembles an encoded delta whose DelLinks and AddTuples
// lists are written with the given successive differences — Encode sorts
// what it writes, and a difference that wraps uint64 is the only way bytes
// decode to an unsorted list.
func rawDelta(tb testing.TB, fromDay, toDay uint64, delLinkDiffs, addTupleDiffs []uint64) []byte {
	tb.Helper()
	var sw sectionWriter
	keys := func(diffs []uint64) {
		sw.uvarint(uint64(len(diffs)))
		for _, d := range diffs {
			sw.uvarint(d)
		}
	}
	sw.uvarint(atlasVersion)
	sw.uvarint(fromDay)
	sw.uvarint(toDay)
	sw.uvarint(0) // UpLinks
	keys(delLinkDiffs)
	sw.uvarint(0) // UpLoss
	keys(nil)     // DelLoss
	keys(addTupleDiffs)
	keys(nil)     // DelTuples
	sw.uvarint(0) // UpAdjust
	keys(nil)     // DelAdjust
	sw.uvarint(0) // AddClusterAS
	sw.uvarint(0) // UpPrefixCluster
	keys(nil)     // DelPrefixCluster
	sw.uvarint(0) // UpIfaceCluster
	keys(nil)     // DelIfaceCluster
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write([]byte(deltaMagic))
	gz.Write(sw.buf.Bytes())
	if err := gz.Close(); err != nil {
		tb.Fatal(err)
	}
	if _, err := DecodeDelta(bytes.NewReader(buf.Bytes())); err != nil {
		tb.Fatalf("hand-assembled delta does not decode: %v", err)
	}
	return buf.Bytes()
}

// FuzzDeltaApply is the trust boundary of a day roll: a delta arrives from
// a swarm peer as untrusted bytes and is merged into the serving atlas.
// Whatever DecodeDelta accepts, Flat.Apply must merge without panicking,
// into a Flat that passes Validate and equals, field for field, what the
// map path (Inflate, Atlas.Apply, Compile) makes of the same delta.
func FuzzDeltaApply(f *testing.F) {
	day0, _, _ := buildTestAtlas(f, 1, 0)
	day1, _, _ := buildTestAtlas(f, 1, 1)
	base := Compile(day0)
	n := cluster.ClusterID(day0.NumClusters)
	add := func(d *Delta) {
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	add(Diff(day0, day1)) // a real day 0 -> 1 delta
	l := day0.Links[0]
	add(&Delta{ToDay: 1, // a repeated upsert, of a carried link and of a new one
		UpLinks: []Link{
			{From: l.From, To: l.To, LatencyMS: 1, Planes: PlaneToDst},
			{From: l.From, To: l.To, LatencyMS: 2, Planes: PlaneMask},
			{From: n - 1, To: 0, LatencyMS: 3, Planes: PlaneToDst},
			{From: n - 1, To: 0, LatencyMS: 4, Planes: PlaneFromSrc},
		},
		DelLinks: []uint64{LinkKey(l.From, l.To), LinkKey(l.From, l.To)},
	})
	add(&Delta{ToDay: 1, // IDs at and past the end of the cluster space
		UpLinks:         []Link{{From: n, To: 0, LatencyMS: 1, Planes: 1}, {From: 0, To: n + 7, LatencyMS: 1, Planes: 1}},
		UpLoss:          map[uint64]float32{LinkKey(n, 0): 0.5},
		UpPrefixCluster: map[netsim.Prefix]cluster.ClusterID{1: n, 2: n + 1000},
		UpIfaceCluster:  map[netsim.Prefix]cluster.ClusterID{3: n},
		AddClusterAS:    []netsim.ASN{7},
	})
	k := LinkKey(l.From, l.To)
	f.Add(rawDelta(f, 0, 1, []uint64{k + 5, ^uint64(4), 0}, []uint64{9, 0, ^uint64(3), 0})) // unsorted, repeated
	f.Add(rawDelta(f, 0, 0, nil, nil))                                                      // nothing at all, inside the day
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDelta(bytes.NewReader(data))
		if err != nil {
			return
		}
		got, st := base.Apply(d)
		if err := got.Validate(); err != nil {
			t.Fatalf("applied flat fails Validate: %v", err)
		}
		sameFlat(t, got, mapPath(base, d))
		if st.LinksAdded-st.LinksRemoved != got.NumEdges()-base.NumEdges() {
			t.Fatalf("stats say links +%d -%d, the table went %d -> %d", st.LinksAdded, st.LinksRemoved, base.NumEdges(), got.NumEdges())
		}
	})
}
