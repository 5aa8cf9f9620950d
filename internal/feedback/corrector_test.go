package feedback

import (
	"context"
	"errors"
	"testing"
	"time"

	"inano/internal/netsim"
)

// seedTracker fills a tracker with n badly mispredicted destinations on
// distinct clusters.
func seedTracker(n int) *Tracker {
	tr := NewTracker()
	now := time.Now()
	for i := 0; i < n; i++ {
		tr.Record(int32(i), netsim.Prefix(1), netsim.Prefix(100+i), 0, 100, false, now)
	}
	return tr
}

func TestCorrectorHonorsBudget(t *testing.T) {
	tr := seedTracker(20)
	var probed []netsim.Prefix
	prober := ProberFunc(func(_ context.Context, src, dst netsim.Prefix) (Traceroute, error) {
		probed = append(probed, dst)
		return Traceroute{Src: src, Dst: dst, Hops: []Hop{{IP: 1, RTTMS: 5}}}, nil
	})
	merged := 0
	cor := NewCorrector(tr, prober, func(trs []Traceroute) int {
		merged += len(trs)
		return len(trs)
	}, Config{Budget: 5, Cooldown: time.Hour})

	r := cor.RunOnce(context.Background())
	if r.Probes != 5 || r.Targets != 5 || len(probed) != 5 {
		t.Fatalf("budget not honored: %+v probed=%d", r, len(probed))
	}
	if r.Merged != 5 || merged != 5 {
		t.Fatalf("merge accounting: %+v merged=%d", r, merged)
	}
	if u := r.Utilization(); u != 1.0 {
		t.Fatalf("utilization = %v, want 1", u)
	}

	// The cooldown keeps the first round's targets off the second round's
	// schedule: fresh destinations are probed instead.
	seen := make(map[netsim.Prefix]bool)
	for _, d := range probed {
		seen[d] = true
	}
	probed = probed[:0]
	cor.RunOnce(context.Background())
	for _, d := range probed {
		if seen[d] {
			t.Fatalf("destination %v re-probed within cooldown", d)
		}
	}
}

func TestCorrectorProbeErrors(t *testing.T) {
	tr := seedTracker(3)
	prober := ProberFunc(func(context.Context, netsim.Prefix, netsim.Prefix) (Traceroute, error) {
		return Traceroute{}, errors.New("probe failed")
	})
	mergeCalled := false
	cor := NewCorrector(tr, prober, func([]Traceroute) int {
		mergeCalled = true
		return 0
	}, Config{Budget: 3})
	r := cor.RunOnce(context.Background())
	if r.Probes != 3 || r.ProbeErrors != 3 || r.Merged != 0 {
		t.Fatalf("error accounting: %+v", r)
	}
	if mergeCalled {
		t.Fatal("merge called with no successful traceroutes")
	}
	// Failed probes still consume the cooldown: the same unreachable
	// destinations must not monopolize the next round's budget.
	r = cor.RunOnce(context.Background())
	if r.Probes != 0 {
		t.Fatalf("failed destinations re-probed within cooldown: %+v", r)
	}
}

func TestCorrectorPredictHook(t *testing.T) {
	tr := seedTracker(1)
	prober := ProberFunc(func(_ context.Context, src, dst netsim.Prefix) (Traceroute, error) {
		return Traceroute{Src: src, Dst: dst}, nil
	})
	var got Traceroute
	cor := NewCorrector(tr, prober, func(trs []Traceroute) int {
		got = trs[0]
		return 0
	}, Config{
		Budget:  1,
		Predict: func(src, dst netsim.Prefix) (float64, bool) { return 123.5, true },
	})
	cor.RunOnce(context.Background())
	if !got.Predicted || got.PredictedRTTMS != 123.5 {
		t.Fatalf("predict hook not threaded into traceroute: %+v", got)
	}
}

// TestCorrectorCooldownExpiresOnFakeClock drives the cooldown through an
// injected clock: a probed destination is ineligible inside the cooldown
// window and schedulable again after it — with no wall-clock sleeps, so
// the test cannot flake under load.
func TestCorrectorCooldownExpiresOnFakeClock(t *testing.T) {
	tr := NewTracker()
	base := time.Unix(10_000, 0)
	tr.Record(1, netsim.Prefix(1), netsim.Prefix(100), 0, 100, false, base)

	probed := 0
	prober := ProberFunc(func(_ context.Context, src, dst netsim.Prefix) (Traceroute, error) {
		probed++
		return Traceroute{Src: src, Dst: dst, Hops: []Hop{{IP: 1, RTTMS: 5}}}, nil
	})
	cor := NewCorrector(tr, prober, func(trs []Traceroute) int { return len(trs) },
		Config{Budget: 1, Cooldown: 10 * time.Minute})
	now := base
	cor.nowFn = func() time.Time { return now }

	if r := cor.RunOnce(context.Background()); r.Probes != 1 {
		t.Fatalf("first round: %+v", r)
	}
	// Inside the cooldown nothing is eligible — even many rounds later.
	now = now.Add(9 * time.Minute)
	tr.Record(1, netsim.Prefix(1), netsim.Prefix(100), 0, 100, false, now)
	if r := cor.RunOnce(context.Background()); r.Probes != 0 {
		t.Fatalf("probed inside cooldown: %+v", r)
	}
	// Past the cooldown the destination is schedulable again.
	now = now.Add(2 * time.Minute)
	if r := cor.RunOnce(context.Background()); r.Probes != 1 {
		t.Fatalf("cooldown never expired: %+v", r)
	}
	if probed != 2 {
		t.Fatalf("probes issued = %d, want 2", probed)
	}
}

// TestCorrectorStalenessOnFakeClock: tracked error older than the
// tracker's 15-minute staleness bound says nothing about the current atlas and must not
// be probed, however large it is.
func TestCorrectorStalenessOnFakeClock(t *testing.T) {
	tr := NewTracker()
	base := time.Unix(10_000, 0)
	tr.Record(1, netsim.Prefix(1), netsim.Prefix(100), 0, 100, false, base)

	cor := NewCorrector(tr, ProberFunc(func(_ context.Context, src, dst netsim.Prefix) (Traceroute, error) {
		return Traceroute{Src: src, Dst: dst}, nil
	}), func(trs []Traceroute) int { return 0 }, Config{Budget: 4})
	now := base.Add(16 * time.Minute)
	cor.nowFn = func() time.Time { return now }

	if r := cor.RunOnce(context.Background()); r.Probes != 0 {
		t.Fatalf("stale destination probed: %+v", r)
	}
	// A fresh observation revives it.
	tr.Record(1, netsim.Prefix(1), netsim.Prefix(100), 0, 100, false, now)
	if r := cor.RunOnce(context.Background()); r.Probes != 1 {
		t.Fatalf("fresh destination not probed: %+v", r)
	}
}

func TestCorrectorObserveHook(t *testing.T) {
	tr := seedTracker(2)
	prober := ProberFunc(func(_ context.Context, src, dst netsim.Prefix) (Traceroute, error) {
		return Traceroute{Src: src, Dst: dst, Hops: []Hop{{IP: 1, RTTMS: 5}}}, nil
	})
	var observed []Traceroute
	cor := NewCorrector(tr, prober, func(trs []Traceroute) int { return len(trs) }, Config{
		Budget:  2,
		Observe: func(trs []Traceroute) { observed = append(observed, trs...) },
	})
	cor.RunOnce(context.Background())
	if len(observed) != 2 {
		t.Fatalf("observe hook saw %d traceroutes, want 2", len(observed))
	}
}

func TestCorrectorCancelledContext(t *testing.T) {
	tr := seedTracker(10)
	probes := 0
	prober := ProberFunc(func(_ context.Context, src, dst netsim.Prefix) (Traceroute, error) {
		probes++
		return Traceroute{Src: src, Dst: dst}, nil
	})
	cor := NewCorrector(tr, prober, func(trs []Traceroute) int { return 0 }, Config{Budget: 10})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := cor.RunOnce(ctx)
	if probes != 0 || r.Probes != 0 {
		t.Fatalf("probes issued under a cancelled context: %+v", r)
	}
}
