package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	inano "inano"
	"inano/internal/feedback"
	"inano/internal/netsim"
)

// FeedbackResult reports the measurement-feedback-loop experiment: a
// client replays ground-truth observations for its workload, the
// corrective scheduler spends its traceroute budget on the worst
// mispredictions, and the mean prediction error is compared before and
// after (§4.3.1's claim that a small corrective budget measurably patches
// the local atlas).
type FeedbackResult struct {
	// Pairs is the replayed workload size (held-out validation pairs with
	// ground-truth RTTs).
	Pairs int
	// Rounds and Budget shape the corrective spend.
	Rounds, Budget int
	// Probes and Merged account the corrective traceroutes actually
	// issued and the atlas changes they contributed.
	Probes, Merged int
	// ErrBefore/ErrAfter are the mean capped relative RTT errors over the
	// workload (unpredicted pairs score 1.0), before and after correction.
	ErrBefore, ErrAfter float64
	// AnsweredBefore/AnsweredAfter count pairs with a prediction.
	AnsweredBefore, AnsweredAfter int
}

// FeedbackLoop runs the feedback experiment on day 0: the validation
// sources' held-out pairs (paths the atlas never saw end-to-end) are the
// workload, the simulator's true RTTs are the observations, and the
// corrective prober measures the same synthetic world the atlas was built
// from.
func FeedbackLoop(l *Lab, budget, rounds int) FeedbackResult {
	dd := l.Day(0)
	client := inano.FromAtlas(dd.Atlas)
	prober := feedback.SimProber{Meter: dd.Meter}

	type obs struct {
		src, dst netsim.Prefix
		trueRTT  float64
	}
	var work []obs
	for _, vp := range dd.Validation {
		if rtt, ok := l.W.TrueRTT(0, vp.Src, vp.Dst); ok {
			work = append(work, obs{vp.Src, vp.Dst, rtt})
		}
	}
	res := FeedbackResult{Pairs: len(work), Rounds: rounds, Budget: budget}
	if len(work) == 0 {
		return res
	}

	ctx := context.Background()
	meanErr := func() (float64, int) {
		sum, answered := 0.0, 0
		for _, o := range work {
			info, _ := client.Snapshot().Query(ctx, o.src, o.dst) // the background context never ends
			if info.Found {
				answered++
			}
			sum += feedback.RelErr(info.RTTMS, o.trueRTT, info.Found)
		}
		return sum / float64(len(work)), answered
	}
	res.ErrBefore, res.AnsweredBefore = meanErr()

	cfg := feedback.Config{
		Budget: budget,
		// The replay is dense, so a destination observed once is eligible
		// and every probed destination stays off the schedule for the
		// whole run (each round's budget reaches fresh destinations).
		MinError: 0.05,
		Cooldown: time.Hour,
	}
	for r := 0; r < rounds; r++ {
		snap := client.Snapshot()
		for _, o := range work {
			client.ObserveRTT(ctx, snap, o.src, o.dst, o.trueRTT)
		}
		round := client.NewCorrector(prober, cfg).RunOnce(ctx)
		res.Probes += round.Probes
		res.Merged += round.Merged
	}
	res.ErrAfter, res.AnsweredAfter = meanErr()
	return res
}

// Render formats the feedback experiment.
func (r FeedbackResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Feedback loop: %d held-out pairs, %d rounds x %d corrective probes\n",
		r.Pairs, r.Rounds, r.Budget)
	fmt.Fprintf(&b, "  probes issued %d, atlas changes merged %d\n", r.Probes, r.Merged)
	fmt.Fprintf(&b, "  mean RTT error before %.3f (answered %d/%d)\n", r.ErrBefore, r.AnsweredBefore, r.Pairs)
	fmt.Fprintf(&b, "  mean RTT error after  %.3f (answered %d/%d)\n", r.ErrAfter, r.AnsweredAfter, r.Pairs)
	if r.ErrBefore > 0 {
		fmt.Fprintf(&b, "  error reduction: %.1f%%\n", 100*(r.ErrBefore-r.ErrAfter)/r.ErrBefore)
	}
	return b.String()
}
