package inano

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"inano/internal/atlas"
	"inano/internal/cluster"
	"inano/internal/core"
	"inano/sim"
)

// dayChain builds days 0..n of one world over chained cluster IDs, each
// atlas through its codec (as a client would hold it), with the encoded
// delta from every day to the next.
func dayChain(t testing.TB, seed int64, n int) (w *sim.World, vps []Prefix, days []*atlas.Atlas, deltas [][]byte) {
	t.Helper()
	w = sim.NewWorld(sim.Tiny, seed)
	vps = w.VantagePoints(12)
	var cl *cluster.Clustering
	for d := 0; d <= n; d++ {
		c := w.Measure(sim.CampaignOptions{Day: d, VPs: vps, Targets: w.EdgePrefixes()})
		cl = c.Clusters(cl)
		var buf bytes.Buffer
		if err := c.BuildAtlasOver(cl).Encode(&buf); err != nil {
			t.Fatal(err)
		}
		a, err := atlas.Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		days = append(days, a)
		if d > 0 {
			deltas = append(deltas, encodeDelta(t, atlas.Diff(days[d-1], a)))
		}
	}
	return w, vps, days, deltas
}

// TestDeltaRollMatchesReference follows a chain of three deltas on a
// client and, after each, sweeps every (vantage point, edge prefix) pair
// against the reference: the map-form atlas with the same deltas applied
// by Atlas.Apply, under a plain engine. Every answer must be equal field
// for field — and the roll itself must never touch the map form: no
// Clone, no map Apply, no Compile.
func TestDeltaRollMatchesReference(t *testing.T) {
	w, vps, days, deltas := dayChain(t, 140, 3)
	c := FromAtlas(days[0])
	ref := days[0].Clone()
	for i, enc := range deltas {
		before := atlas.MapOpCounts()
		if err := c.ApplyDelta(bytes.NewReader(enc)); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		if after := atlas.MapOpCounts(); after != before {
			t.Fatalf("delta %d: the roll ran map-form operations: %+v -> %+v", i, before, after)
		}
		st, ok := c.LastRoll()
		if !ok || st.FromDay != i || st.ToDay != i+1 || st.Duration <= 0 {
			t.Fatalf("delta %d: LastRoll = %+v, %v", i, st, ok)
		}
		if i == 0 && st.LinksChanged() == 0 && st.TuplesAdded+st.TuplesRemoved == 0 {
			t.Fatalf("a day of churn changed nothing: %+v", st)
		}

		d, err := atlas.DecodeDelta(bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		ref.Apply(d)
		want := core.New(ref, core.INanoOptions())
		answered := 0
		for _, src := range vps {
			for _, dst := range w.EdgePrefixes() {
				got, exp := c.QueryPrefix(src, dst), want.Query(src, dst)
				if !reflect.DeepEqual(got, exp) {
					t.Fatalf("after delta %d, %v -> %v:\n client    %+v\n reference %+v", i, src, dst, got, exp)
				}
				if got.Found {
					answered++
				}
			}
		}
		if answered == 0 {
			t.Fatalf("after delta %d the sweep answered nothing", i)
		}
	}
}

// TestQueryDoesNotWaitForMutation parks a writer between having built the
// next engine and publishing it, writer mutex held, and requires every
// read path to return meanwhile — on the old day. A reader that shares any
// lock with writers hangs here until the test's own deadline.
func TestQueryDoesNotWaitForMutation(t *testing.T) {
	_, vps, days, deltas := dayChain(t, 141, 1)
	c := FromAtlas(days[0])
	src, dst := vps[0].HostIP(), vps[1].HostIP()

	parked, release := make(chan struct{}), make(chan struct{})
	c.beforePublish = func() {
		close(parked)
		<-release
	}
	applied := make(chan error, 1)
	go func() { applied <- c.ApplyDelta(bytes.NewReader(deltas[0])) }()
	<-parked

	read := make(chan int, 1)
	go func() {
		snap := c.Snapshot()
		c.Query(src, dst)
		snap.Query(src, dst)
		c.CacheStats()
		c.LastRoll()
		snap.AtlasStats()
		read <- c.Day() + snap.Day()
	}()
	select {
	case day := <-read:
		if day != 0 {
			t.Errorf("readers saw day sum %d before the roll was published, want 0", day)
		}
	case <-time.After(10 * time.Second):
		t.Error("readers are waiting for a writer that has not published")
	}
	close(release)
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	if c.Day() != 1 {
		t.Fatalf("day %d after the roll", c.Day())
	}
}

// TestRollFreesTheMapping starts a client from an mmap'd flat file, rolls
// it, then unmaps the file: the new engine must own every byte it reads.
// An Apply that kept a slice of its input would fault here.
func TestRollFreesTheMapping(t *testing.T) {
	w, vps, days, deltas := dayChain(t, 142, 1)
	path := filepath.Join(t.TempDir(), "day0.flat")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := atlas.WriteFlat(f, atlas.Compile(days[0])); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ff, err := atlas.OpenFlat(path, true)
	if err != nil {
		t.Fatal(err)
	}
	c := FromFlat(ff.Flat)
	if err := c.ApplyDelta(bytes.NewReader(deltas[0])); err != nil {
		t.Fatal(err)
	}
	type answer struct {
		src, dst Prefix
		info     PathInfo
	}
	var mapped []answer
	for _, src := range vps {
		for _, dst := range w.EdgePrefixes() {
			mapped = append(mapped, answer{src, dst, c.QueryPrefix(src, dst)})
		}
	}
	if err := ff.Close(); err != nil {
		t.Fatal(err)
	}
	// A fresh client over the same roll answers from a cold tree cache:
	// every table the engine reads is read again with the mapping gone.
	cold := FromFlatOptions(c.Snapshot().e.Flat(), core.INanoOptions())
	found := 0
	for _, a := range mapped {
		if got := cold.QueryPrefix(a.src, a.dst); !reflect.DeepEqual(got, a.info) {
			t.Fatalf("%v -> %v changed once the mapping was closed:\n before %+v\n after  %+v", a.src, a.dst, a.info, got)
		}
		if a.info.Found {
			found++
		}
	}
	if found == 0 {
		t.Fatal("the sweep answered nothing")
	}
	if c.Atlas().Day != 1 {
		t.Fatal("Atlas() after the roll is not day 1")
	}
}
