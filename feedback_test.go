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
// ObserveRTTContext refuses it with an error, and ObserveRTT returns it
// untracked; a good sample afterwards is scored as if none had come.
func TestObserveRTTRefusesNonMeasurements(t *testing.T) {
	f := buildFixture(t, 108, 0)
	c := FromAtlas(f.a)
	src, dst := f.vps[0].HostIP(), f.vps[1].HostIP()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -5, feedback.MaxObservedRTTMS + 1} {
		if s := c.ObserveRTT(src, dst, bad); s.Tracked || s.Err != 0 {
			t.Errorf("ObserveRTT(%v) = %+v, want untracked and unscored", bad, s)
		}
		if _, err := c.ObserveRTTContext(context.Background(), src, dst, bad); err == nil {
			t.Errorf("ObserveRTTContext(%v) accepted it", bad)
		}
	}
	if st := c.FeedbackStats(); st != (FeedbackStats{}) {
		t.Fatalf("tracker after refused observations: %+v, want empty", st)
	}
	s := c.ObserveRTT(src, dst, 50)
	if !s.Tracked || math.IsNaN(s.Err) {
		t.Fatalf("good sample after refused ones: %+v", s)
	}
	if st := c.FeedbackStats(); st.Entries != 1 || st.TotalSamples != 1 || st.MeanErr != s.Err || st.WorstErr != s.Err {
		t.Fatalf("tracker after one good sample: %+v, want its error %v", st, s.Err)
	}
}
