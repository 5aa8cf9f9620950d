package inano

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"inano/internal/atlas"
	"inano/sim"
)

// TestLoadMatchesFromAtlas holds Load — the .bin decoded straight into the
// serving form — to the map door on both days of the roll fixture: a client
// from Load(bin) and one from FromAtlas(Decode(bin)) answer an all-pairs
// sweep alike (clusters, AS paths, latencies, loss), and still do once each
// has applied the same delta.
func TestLoadMatchesFromAtlas(t *testing.T) {
	w, vps, days, deltas := dayChain(t, 141, 2)
	for day := 0; day < 2; day++ {
		var bin bytes.Buffer
		if err := days[day].Encode(&bin); err != nil {
			t.Fatal(err)
		}
		before := atlas.MapOpCounts()
		loaded, err := Load(bytes.NewReader(bin.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if after := atlas.MapOpCounts(); after != before {
			t.Fatalf("day %d: Load ran map-form operations: %+v -> %+v", day, before, after)
		}
		a, err := atlas.Decode(&bin)
		if err != nil {
			t.Fatal(err)
		}
		ref := FromAtlas(a)
		sweep := func(stage string) {
			t.Helper()
			found := 0
			for _, src := range append(vps, w.EdgePrefixes()[:8]...) {
				for _, dst := range w.EdgePrefixes() {
					got, want := queryPair(loaded, src, dst), queryPair(ref, src, dst)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("day %d %s: %v -> %v\n Load:      %+v\n FromAtlas: %+v", day, stage, src, dst, got, want)
					}
					if got.Found {
						found++
					}
				}
			}
			if found == 0 {
				t.Fatalf("day %d %s: no pair was answered", day, stage)
			}
			// Few sweeps hinge on the order of a bucket's edges or on one
			// link's loss; the compiled forms must be equal all the same.
			got, want := reflect.ValueOf(loaded.engine.Load().Flat()).Elem(), reflect.ValueOf(ref.engine.Load().Flat()).Elem()
			for i := 0; i < got.NumField(); i++ {
				if sf := got.Type().Field(i); sf.IsExported() && !reflect.DeepEqual(got.Field(i).Interface(), want.Field(i).Interface()) {
					t.Fatalf("day %d %s: Flat.%s differs between Load and FromAtlas", day, stage, sf.Name)
				}
			}
		}
		sweep("as loaded")
		for _, c := range []*Client{loaded, ref} {
			if err := c.ApplyDelta(bytes.NewReader(deltas[day])); err != nil {
				t.Fatal(err)
			}
		}
		sweep("after the delta")
	}
}

// TestLoadAllocBudget is the allocation gate for start-up: DecodeFlat builds
// no map and sorts nothing, so on the same bytes it allocates at most half
// of what the map door and Compile do, in at most two fifths of the objects
// — here on an atlas of the ledger's size. The map door's bytes move from
// draw to draw in steps of about 37 KB (its maps grow at the loads their
// hash seeds give them), so one draw of them would leave the byte margin
// to chance: they are held to a stated figure instead, 24.8 B for each
// entry of the Flat's tables, which is where the map door's lowest
// readings on this atlas sit (1 175 to 1 181 KB for 47 600 entries). Half
// of that, 12.4 B for each entry of the Flat DecodeFlat returns, is the
// byte budget. CI runs it beside the zero-alloc gates.
func TestLoadAllocBudget(t *testing.T) {
	w := sim.NewWorld(sim.Medium, 7)
	var buf bytes.Buffer
	c := w.Measure(sim.CampaignOptions{VPs: w.VantagePoints(16), Targets: w.EdgePrefixes()})
	if err := c.BuildAtlas().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// One P while the windows are open: the runtime's resize is not theirs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocated := func(f func() error) (bytes, objects uint64) {
		t.Helper()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		err := f()
		runtime.ReadMemStats(&ms1)
		if err != nil {
			t.Fatal(err)
		}
		return ms1.TotalAlloc - ms0.TotalAlloc, ms1.Mallocs - ms0.Mallocs
	}
	mapBytes, mapObjects := allocated(func() error {
		a, err := atlas.Decode(bytes.NewReader(raw))
		if err == nil {
			atlas.Compile(a)
		}
		return err
	})
	var f *atlas.Flat
	flatBytes, flatObjects := allocated(func() (err error) {
		f, err = atlas.DecodeFlat(bytes.NewReader(raw))
		return err
	})
	entries := 0
	for v, i := reflect.ValueOf(f).Elem(), 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() == reflect.Slice && v.Type().Field(i).IsExported() {
			entries += v.Field(i).Len()
		}
	}
	budget := uint64(12.4 * float64(entries))
	t.Logf("%d-byte atlas, %d table entries: DecodeFlat %d B (%.2f B an entry, budget %d B) in %d objects; Compile(Decode) %d B in %d objects",
		len(raw), entries, flatBytes, float64(flatBytes)/float64(entries), budget, flatObjects, mapBytes, mapObjects)
	if flatBytes > budget {
		t.Fatalf("DecodeFlat allocates %d bytes, over half the map path's 24.8 B an entry (%d B for %d entries)", flatBytes, budget, entries)
	}
	if 5*flatObjects > 2*mapObjects {
		t.Fatalf("DecodeFlat allocates %d objects, over 40%% of the map path's %d", flatObjects, mapObjects)
	}
}
