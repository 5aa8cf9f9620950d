package atlas

import (
	"bytes"
	"errors"
	"maps"
	"slices"
	"testing"
)

// TestDeltaRefusesWrongBase applies a real delta to an atlas of the same day
// and cluster count that differs from its base in one 3-tuple, one link or
// one loss annotation. Key by key, as the delta once was, it would apply and
// mean something else; coded against its base, both applies refuse it.
func TestDeltaRefusesWrongBase(t *testing.T) {
	day0, _, _ := buildTestAtlas(t, 1, 0)
	day1, _, _ := buildTestAtlas(t, 1, 1)
	wire, err := DecodeDelta(bytes.NewReader(wireBytes(t, Diff(day0, day1).Encode)))
	if err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(*Atlas){
		"a 3-tuple": func(a *Atlas) {
			k := slices.Min(slices.Collect(maps.Keys(a.Tuples)))
			delete(a.Tuples, k)
			a.Tuples[k^1] = true
		},
		"a link":            func(a *Atlas) { a.Links = a.Links[1:] },
		"a loss annotation": func(a *Atlas) { a.Loss[LinkKey(a.Links[0].From, a.Links[0].To)^(1<<40)] = 0.5 },
	} {
		other := day0.Clone()
		edit(other)
		if _, _, err := Compile(other).Apply(wire); !errors.Is(err, ErrDeltaBase) {
			t.Errorf("%s different: flat apply says %v", name, err)
		}
		if err := other.Clone().Apply(wire); !errors.Is(err, ErrDeltaBase) {
			t.Errorf("%s different: map apply says %v", name, err)
		}
		// The keyed delta Diff returns names its base too.
		if _, _, err := Compile(other).Apply(Diff(day0, day1)); !errors.Is(err, ErrDeltaBase) {
			t.Errorf("%s different: flat apply of the diffed delta says %v", name, err)
		}
	}
	// Another day, or one cluster more, is another base as well.
	later := day0.Clone()
	later.Day++
	grown := day0.Clone()
	grown.NumClusters++
	grown.ClusterAS = append(grown.ClusterAS, 1)
	for _, a := range []*Atlas{later, grown} {
		if _, _, err := Compile(a).Apply(wire); !errors.Is(err, ErrDeltaBase) {
			t.Errorf("day %d, %d clusters: flat apply says %v", a.Day, a.NumClusters, err)
		}
	}
	if _, _, err := Compile(day0).Apply(wire); err != nil {
		t.Fatalf("the delta's own base refuses it: %v", err)
	}
}

// TestDeltaRefusesIndexPastTable: an index one past the end of each table
// is refused by name on both applies, and the atlas it was applied to is
// left as it was.
func TestDeltaRefusesIndexPastTable(t *testing.T) {
	day0, _, _ := buildTestAtlas(t, 1, 0)
	b := Compile(day0)
	edges, loss, tuples := b.baseEdges(), uint64(len(b.LossKeys)), uint64(len(b.Tuples))
	for _, refs := range []*deltaRefs{
		{reLinks: []uint64{edges}, reLat: []int64{0}, rePlanes: []uint8{1}},
		{delLinks: []uint64{edges}},
		{delLoss: []uint64{loss}},
		{delTuples: []uint64{tuples}},
	} {
		d, err := DecodeDelta(bytes.NewReader(rawDelta(t, b.baseName(), 1, nil, refs, nil)))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := Compile(day0).Apply(d); !errors.Is(err, ErrDeltaIndex) {
			t.Errorf("%+v: flat apply says %v", refs, err)
		}
		a := day0.Clone()
		if err := a.Apply(d); !errors.Is(err, ErrDeltaIndex) {
			t.Errorf("%+v: map apply says %v", refs, err)
		}
		if a.Day != day0.Day || len(a.Links) != len(day0.Links) || len(a.Tuples) != len(day0.Tuples) {
			t.Errorf("%+v: a refused delta changed the atlas", refs)
		}
	}
}

// TestDecodeDeltaRefusesVersion5 pins what a v6 reader says to a delta of the
// atlas stream's version, whose removals are keys it would take for
// indices: the version, by name.
func TestDecodeDeltaRefusesVersion5(t *testing.T) {
	var sw sectionWriter
	sw.uvarint(5)
	_, err := DecodeDelta(bytes.NewReader(gzipped(t, deltaMagic, sw.buf.Bytes())))
	if !errors.Is(err, ErrVersion) || err.Error() != "atlas: decoding delta: unsupported version 5" {
		t.Fatalf("err %v, want the unsupported version", err)
	}
}

// TestQuantLatRoundTrip: a re-annotation is a difference of quantised
// latencies, taken by the builder against its base's latency and added back
// by a client to its own copy of that latency, which is the decoded one. So
// every latency the wire carries must quantise back to itself once decoded:
// every 0.01 ms step below 2^16 ms, past which float32 no longer holds the
// step (a one-way link latency over a minute is no measurement).
func TestQuantLatRoundTrip(t *testing.T) {
	for u := range uint64(1<<16) * 100 {
		if got := quantLat(unquantLat(u)); got != u {
			t.Fatalf("%d wire units decode to %v ms, which quantises to %d", u, unquantLat(u), got)
		}
	}
}
