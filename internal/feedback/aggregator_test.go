package feedback

import (
	"path/filepath"
	"testing"
	"time"

	"inano/internal/cluster"
	"inano/internal/netsim"
)

func fakeNow(start time.Time) (func() time.Time, func(time.Duration)) {
	now := start
	return func() time.Time { return now }, func(d time.Duration) { now = now.Add(d) }
}

func TestAggregatorMedianAcrossReporters(t *testing.T) {
	g := NewAggregator()
	p := netsim.Prefix(100)
	g.Record(1, p, 10)
	g.Record(2, p, 20)
	g.Record(3, p, 30)
	snap := g.Snapshot(7)
	if snap.Day != 7 || len(snap.Prefixes) != 1 {
		t.Fatalf("snapshot: %+v", snap)
	}
	if ag := snap.Prefixes[0]; ag.Prefix != p || ag.ResidualMS != 20 || ag.Reporters != 3 {
		t.Fatalf("aggregate: %+v", ag)
	}
	// Even reporter count: mean of the middle two.
	g.Record(4, p, 40)
	if ag := g.Snapshot(7).Prefixes[0]; ag.ResidualMS != 25 {
		t.Fatalf("even-count median = %v, want 25", ag.ResidualMS)
	}
}

func TestAggregatorDedupsPerReporter(t *testing.T) {
	g := NewAggregator()
	p := netsim.Prefix(100)
	// One source cluster reporting 100 times holds exactly one slot, and
	// the newest residual wins.
	for i := 0; i < 100; i++ {
		g.Record(1, p, float64(i))
	}
	g.Record(2, p, 7)
	snap := g.Snapshot(0)
	if ag := snap.Prefixes[0]; ag.Reporters != 2 {
		t.Fatalf("reporters = %d, want 2 (dedup per source cluster)", ag.Reporters)
	}
	// Median of {99, 7} = 53: the flood counts once.
	if ag := snap.Prefixes[0]; ag.ResidualMS != 53 {
		t.Fatalf("median = %v, want 53", ag.ResidualMS)
	}
}

// TestAggregatorSingleLiarBound: the per-prefix aggregate with one lying
// reporter added stays inside the honest reporters' residual range — the
// poisoning bound /v1/observations relies on.
func TestAggregatorSingleLiarBound(t *testing.T) {
	p := netsim.Prefix(42)
	honest := []float64{-5, 3, 12}
	for _, lie := range []float64{1e6, -1e6, MaxAdjustMS, -MaxAdjustMS} {
		g := NewAggregator()
		for i, r := range honest {
			g.Record(int32(i), p, r)
		}
		g.Record(99, p, lie)
		got := g.Snapshot(0).Prefixes[0].ResidualMS
		if got < -5 || got > 12 {
			t.Fatalf("lie %v moved aggregate to %v, outside honest range [-5, 12]", lie, got)
		}
	}
}

func TestAggregatorClampsResiduals(t *testing.T) {
	g := NewAggregator()
	g.Record(1, 1, 1e9)
	g.Record(2, 2, -1e9)
	snap := g.Snapshot(0)
	for _, ag := range snap.Prefixes {
		if ag.ResidualMS > MaxAdjustMS || ag.ResidualMS < -MaxAdjustMS {
			t.Fatalf("unclamped aggregate: %+v", ag)
		}
	}
}

func TestAggregatorBounds(t *testing.T) {
	g := NewAggregator()
	now, advance := fakeNow(time.Unix(1000, 0))
	g.nowFn = now

	// Prefix table bound: the 8193rd prefix evicts the stalest.
	for i := 0; i <= 8192; i++ {
		g.Record(1, netsim.Prefix(i), 1)
		advance(time.Second)
	}
	st := g.Stats()
	if st.Prefixes != 8192 || st.EvictedPrefixes != 1 {
		t.Fatalf("prefix bound: %+v", st)
	}
	if _, ok := g.prefixes[netsim.Prefix(0)]; ok {
		t.Fatal("stalest prefix survived eviction")
	}

	// Reporter bound: the 33rd reporter evicts the stalest slot.
	p := netsim.Prefix(1 << 20)
	for c := int32(1); c <= 33; c++ {
		g.Record(c, p, float64(c))
		advance(time.Second)
	}
	pa := g.prefixes[p]
	if len(pa.reporters) != 32 {
		t.Fatalf("reporter slots = %d, want 32", len(pa.reporters))
	}
	if _, ok := pa.reporters[1]; ok {
		t.Fatal("stalest reporter survived eviction")
	}
}

// TestAggregatorStatsCounts: Stats reads running counts of reporter
// slots and hop paths, so they must match a walk of the table through
// both evictions and a reporter's path being replaced.
func TestAggregatorStatsCounts(t *testing.T) {
	g := NewAggregator()
	now, advance := fakeNow(time.Unix(1000, 0))
	g.nowFn = now
	path := []cluster.ClusterID{1, 2, 3}
	linkMS := []float64{4, 5}
	for i := 0; i < aggMaxPrefixes+40; i++ {
		p := netsim.Prefix(i % (aggMaxPrefixes + 20)) // evicted prefixes come back
		for c := int32(0); c <= int32(i%(aggMaxReporters+8)); c++ {
			if c%3 == 0 {
				g.RecordPath(c, p, path, linkMS)
				g.RecordPath(c, p, path[1:], linkMS[1:]) // replaces, adds no slot
			} else {
				g.Record(c, p, float64(c))
			}
		}
		advance(time.Second)
	}
	var want AggregatorStats
	want.Prefixes, want.EvictedPrefixes = len(g.prefixes), g.evicted
	for _, pa := range g.prefixes {
		want.Reporters += len(pa.reporters)
		for _, r := range pa.reporters {
			if len(r.path) >= 2 {
				want.Paths++
			}
		}
	}
	if st := g.Stats(); st != want || st.EvictedPrefixes == 0 || st.Paths == 0 {
		t.Fatalf("Stats = %+v, walk = %+v", st, want)
	}
}

func TestAggregatorStaleReportersExcluded(t *testing.T) {
	g := NewAggregator()
	now, advance := fakeNow(time.Unix(1000, 0))
	g.nowFn = now
	p := netsim.Prefix(5)
	g.Record(1, p, 50)
	advance(25 * time.Hour) // reporter 1 goes stale
	g.Record(2, p, 10)
	snap := g.Snapshot(0)
	if len(snap.Prefixes) != 1 {
		t.Fatalf("snapshot: %+v", snap)
	}
	if ag := snap.Prefixes[0]; ag.Reporters != 1 || ag.ResidualMS != 10 {
		t.Fatalf("stale reporter still aggregated: %+v", ag)
	}
	// A prefix whose every reporter is stale drops out entirely.
	advance(25 * time.Hour)
	if snap := g.Snapshot(0); len(snap.Prefixes) != 0 {
		t.Fatalf("all-stale prefix still aggregated: %+v", snap)
	}
}

func TestSnapshotSaveLoadAndResiduals(t *testing.T) {
	g := NewAggregator()
	g.Record(1, 10, 4)
	g.Record(2, 10, 6)
	g.Record(3, 10, 8)
	g.Record(1, 20, -3) // single reporter
	snap := g.Snapshot(3)

	path := filepath.Join(t.TempDir(), "obs.json")
	if err := SaveSnapshot(path, snap); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Day != 3 || len(back.Prefixes) != 2 {
		t.Fatalf("loaded: %+v", back)
	}
	// minReporters gates the fold.
	all := back.Residuals(1)
	if len(all) != 2 || all[10] != 6 || all[20] != -3 {
		t.Fatalf("residuals(1): %v", all)
	}
	strict := back.Residuals(3)
	if len(strict) != 1 || strict[10] != 6 {
		t.Fatalf("residuals(3): %v", strict)
	}
	if _, err := LoadSnapshot(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("loading a missing snapshot succeeded")
	}
}
