package inano

import (
	"context"
	"math"
	"testing"

	"inano/internal/feedback"
)

// TestObserveRTTRefusesNonMeasurements: an observed RTT that is NaN,
// infinite, not positive or over feedback.MaxObservedRTTMS is no
// measurement. It leaves the error tracker as it was — one NaN folded
// into an EWMA would read NaN for good and break the corrective ranking —
// and ObserveRTT refuses it with an error and an untracked, unscored
// sample that names no cluster; a good sample afterwards is scored as if
// none had come.
func TestObserveRTTRefusesNonMeasurements(t *testing.T) {
	f := buildFixture(t, 108, 0)
	c := FromAtlas(f.a)
	ctx := context.Background()
	src, dst := f.vps[0], f.vps[1]
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -5, feedback.MaxObservedRTTMS + 1} {
		s, err := c.ObserveRTT(ctx, c.Snapshot(), src, dst, bad)
		if err == nil {
			t.Errorf("ObserveRTT(%v) accepted it", bad)
		}
		if s.Tracked || s.Err != 0 || s.Cluster != -1 {
			t.Errorf("ObserveRTT(%v) = %+v, want untracked, unscored, Cluster -1", bad, s)
		}
	}
	if st := c.FeedbackStats(); st != (FeedbackStats{}) {
		t.Fatalf("tracker after refused observations: %+v, want empty", st)
	}
	s, err := c.ObserveRTT(ctx, c.Snapshot(), src, dst, 50)
	if err != nil || !s.Tracked || math.IsNaN(s.Err) {
		t.Fatalf("good sample after refused ones: %+v (err %v)", s, err)
	}
	if st := c.FeedbackStats(); st.Entries != 1 || st.TotalSamples != 1 || st.MeanErr != s.Err || st.WorstErr != s.Err {
		t.Fatalf("tracker after one good sample: %+v, want its error %v", st, s.Err)
	}
}

// TestObserveRTTCancelledNamesNoCluster: cluster 0 is a real cluster,
// so an observation dropped because its context ended must not name it.
// The sample carries Cluster -1 ("unknown"), like a refused RTT, and the
// tracker stays empty.
func TestObserveRTTCancelledNamesNoCluster(t *testing.T) {
	f := buildFixture(t, 108, 0)
	c := FromAtlas(f.a)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := c.ObserveRTT(ctx, c.Snapshot(), f.vps[0], f.vps[1], 50)
	if err == nil || s.Cluster != -1 || s.Tracked {
		t.Fatalf("ObserveRTT under a cancelled context = %+v, %v; want Cluster -1, untracked, an error", s, err)
	}
	if st := c.FeedbackStats(); st != (FeedbackStats{}) {
		t.Fatalf("tracker after a dropped observation: %+v, want empty", st)
	}
}
