package feedback

import (
	"math"
	"testing"
	"time"

	"inano/internal/netsim"
)

func TestRelErr(t *testing.T) {
	cases := []struct {
		pred, obs float64
		found     bool
		want      float64
	}{
		{100, 100, true, 0},
		{80, 100, true, 0.2},
		{120, 100, true, 0.2},
		{0, 100, false, 1.0},   // unpredicted costs 1.0
		{1000, 100, true, 2.0}, // capped at ErrCap
		{50, 0.5, true, 2.0},   // denominator floored at 1ms, still capped
		{0.6, 0.5, true, 0.1},  // sub-millisecond observations don't explode
	}
	for _, c := range cases {
		if got := RelErr(c.pred, c.obs, c.found); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("RelErr(%v, %v, %v) = %v, want %v", c.pred, c.obs, c.found, got, c.want)
		}
	}
}

func TestTrackerEWMAAndWorstRanking(t *testing.T) {
	tr := NewTracker()
	now := time.Now()
	src, d1, d2, d3 := netsim.Prefix(1), netsim.Prefix(10), netsim.Prefix(20), netsim.Prefix(30)

	// Cluster 1: consistently terrible (unpredicted).
	for i := 0; i < 4; i++ {
		s := tr.Record(1, src, d1, 0, 100, false, now)
		if !s.Tracked || s.Err != 1.0 {
			t.Fatalf("sample %d: %+v", i, s)
		}
	}
	// Cluster 2: mildly wrong.
	for i := 0; i < 4; i++ {
		tr.Record(2, src, d2, 80, 100, true, now)
	}
	// Cluster 3: essentially right.
	for i := 0; i < 4; i++ {
		tr.Record(3, src, d3, 99, 100, true, now)
	}

	worst := tr.Worst(10, 0.05, 0, now)
	if len(worst) != 2 {
		t.Fatalf("Worst returned %d targets, want 2 (cluster 3 is under minErr): %+v", len(worst), worst)
	}
	if worst[0].Cluster != 1 || worst[1].Cluster != 2 {
		t.Fatalf("ranking wrong: %+v", worst)
	}
	if worst[0].Src != src || worst[0].Dst != d1 {
		t.Fatalf("target pair wrong: %+v", worst[0])
	}
	if worst[0].Samples != 4 {
		t.Fatalf("samples = %d, want 4", worst[0].Samples)
	}

	// n caps the schedule.
	if got := tr.Worst(1, 0.05, 0, now); len(got) != 1 || got[0].Cluster != 1 {
		t.Fatalf("n=1 should return only the worst: %+v", got)
	}
}

func TestTrackerEWMAConverges(t *testing.T) {
	tr := NewTracker()
	now := time.Now()
	// Start terrible, then deliver perfect predictions: the EWMA must decay.
	tr.Record(7, 1, 2, 0, 100, false, now)
	for i := 0; i < 10; i++ {
		tr.Record(7, 1, 2, 100, 100, true, now)
	}
	st := tr.Stats()
	if st.Entries != 1 || st.TotalSamples != 11 {
		t.Fatalf("stats: %+v", st)
	}
	// Each perfect sample keeps three quarters of the error (alpha 0.25).
	if want := math.Pow(0.75, 10); math.Abs(st.WorstErr-want) > 1e-12 {
		t.Fatalf("EWMA after 10 perfect samples = %v, want %v: %+v", st.WorstErr, want, st)
	}
}

func TestTrackerStaleness(t *testing.T) {
	tr := NewTracker()
	base := time.Now()
	tr.Record(1, 1, 2, 0, 100, false, base)
	if got := tr.Worst(10, 0.05, 0, base.Add(14*time.Minute)); len(got) != 1 {
		t.Fatalf("fresh entry not scheduled: %+v", got)
	}
	if got := tr.Worst(10, 0.05, 0, base.Add(16*time.Minute)); len(got) != 0 {
		t.Fatalf("stale entry scheduled: %+v", got)
	}
}

func TestTrackerCooldownAndMarkCorrected(t *testing.T) {
	tr := NewTracker()
	now := time.Now()
	for i := 0; i < 3; i++ {
		tr.Record(1, 1, 2, 0, 100, false, now)
	}
	tr.MarkCorrected(1, now)
	// Within cooldown: ineligible even with fresh samples.
	tr.Record(1, 1, 2, 0, 100, false, now)
	if got := tr.Worst(10, 0.05, 5*time.Minute, now.Add(time.Minute)); len(got) != 0 {
		t.Fatalf("corrected entry rescheduled within cooldown: %+v", got)
	}
	// After cooldown with fresh samples: eligible again.
	tr.Record(1, 1, 2, 0, 100, false, now.Add(6*time.Minute))
	if got := tr.Worst(10, 0.05, 5*time.Minute, now.Add(6*time.Minute)); len(got) != 1 {
		t.Fatalf("corrected entry not rescheduled after cooldown: %+v", got)
	}
	// MarkCorrected resets the sample count (entry must re-earn eligibility).
	tr.MarkCorrected(1, now.Add(6*time.Minute))
	if got := tr.Worst(10, 0.05, 0, now.Add(6*time.Minute)); len(got) != 0 {
		t.Fatalf("sample count not reset by MarkCorrected: %+v", got)
	}
}

func TestTrackerEviction(t *testing.T) {
	tr := NewTracker()
	base := time.Now()
	for c := int32(0); c <= 4096; c++ { // one destination past the cap
		tr.Record(c, 1, netsim.Prefix(c), 0, 100, false, base.Add(time.Duration(c)*time.Millisecond))
	}
	if tr.Len() != 4096 {
		t.Fatalf("len = %d, want 4096", tr.Len())
	}
	if st := tr.Stats(); st.Evicted != 1 {
		t.Fatalf("evicted %d, want 1", st.Evicted)
	}
	// The oldest (cluster 0) was evicted; the rest remain.
	got := tr.Worst(5000, 0, 0, base.Add(5*time.Second))
	if len(got) != 4096 {
		t.Fatalf("%d targets, want 4096", len(got))
	}
	for _, tg := range got {
		if tg.Cluster == 0 {
			t.Fatalf("evicted cluster still scheduled: %+v", tg)
		}
	}
}

func TestTrackerUntrackedCluster(t *testing.T) {
	tr := NewTracker()
	s := tr.Record(-1, 1, 2, 0, 100, false, time.Now())
	if s.Tracked {
		t.Fatal("cluster -1 must not be tracked")
	}
	if s.Err != 1.0 {
		t.Fatalf("untracked sample still scores: %+v", s)
	}
	if tr.Len() != 0 {
		t.Fatal("untracked sample entered the table")
	}
}
