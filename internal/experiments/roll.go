package experiments

import (
	"context"
	"fmt"
	"sort"

	inano "inano"
	"inano/internal/atlas"
	"inano/internal/feedback"
	"inano/internal/netsim"
)

// This file extracts the upstream day-roll loop — reporters probe served
// predictions, residuals aggregate, deltas are scored on a held-out
// client — into reusable pieces. UpstreamLoop composes them, and the
// scenario-replay harness (internal/scenario) drives them through
// adversarial timelines: reporter churn, poisoned residuals, rollbacks.

// SharedTargets is the day's shared probe-target set: every destination
// any validation pair names, sorted. The paper's clients traceroute a
// few hundred prefixes a day, so overlapping targets across reporters
// are the norm (and what gives the median its support).
func SharedTargets(dd *DayData) []netsim.Prefix {
	dstSet := make(map[netsim.Prefix]bool)
	for _, vp := range dd.Validation {
		dstSet[vp.Dst] = true
	}
	dsts := make([]netsim.Prefix, 0, len(dstSet))
	for d := range dstSet {
		dsts = append(dsts, d)
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	return dsts
}

// RollObservations is one day-roll's worth of reporter feedback.
type RollObservations struct {
	// Agg is the live aggregator (callers may record more, e.g. a liar).
	Agg *feedback.Aggregator
	// Snapshot is the robust aggregate over every recorded observation.
	Snapshot feedback.ObservationSnapshot
	// Residuals is the fold-ready subset clearing the min-reporter bar.
	Residuals map[netsim.Prefix]float64
	// Honest holds each prefix's clamped per-reporter residuals, for
	// poisoning-bound checks.
	Honest map[netsim.Prefix][]float64
	// Reporters and Observations count what actually fed the aggregator.
	Reporters, Observations int
}

// Mutator optionally rewrites each residual before it is recorded; the
// scenario harness injects adversarial reporters through it. nil means
// honest reporting.
type Mutator func(src netsim.Prefix, dst netsim.Prefix, resid float64) float64

// CollectResiduals runs the reporting half of a day roll: each reporter
// measures day-`day` ground truth toward dsts, residuals are computed
// against the served (uncorrected) day atlas the way /v1/observations
// does, and the robust aggregate is returned. minReporters gates the
// fold (3 buys the median's single-liar bound).
func CollectResiduals(l *Lab, day int, reporters []netsim.Prefix, dsts []netsim.Prefix, minReporters int, mut Mutator) *RollObservations {
	dd := l.Day(day)
	serving := inano.FromAtlas(dd.Atlas)
	snap := serving.Snapshot()
	ro := &RollObservations{
		Agg:    feedback.NewAggregator(),
		Honest: make(map[netsim.Prefix][]float64),
	}
	for _, r := range reporters {
		srcCl, ok := snap.AttachmentCluster(r)
		if !ok {
			continue
		}
		ro.Reporters++
		for _, dst := range dsts {
			trueRTT, ok := l.W.TrueRTT(day, r, dst)
			if !ok {
				continue
			}
			info, _ := snap.Query(context.Background(), r, dst) // the background context never ends
			if !info.Found {
				continue
			}
			resid := trueRTT - info.RTTMS
			if mut != nil {
				resid = mut(r, dst, resid)
			}
			ro.Agg.Record(srcCl, dst, resid)
			ro.Honest[dst] = append(ro.Honest[dst], min(max(resid, -feedback.MaxAdjustMS), feedback.MaxAdjustMS))
			ro.Observations++
		}
	}
	ro.Snapshot = ro.Agg.Snapshot(0)
	ro.Residuals = ro.Snapshot.Residuals(minReporters)
	return ro
}

// ScoreDelta applies d to the day-`from` atlas and scores src's held-out
// validation pairs against day-`to` ground truth, returning the mean
// capped relative RTT error, how many pairs had a prediction, and the
// workload size. d must be diffed against that atlas: it panics on a delta
// the atlas refuses, which would score the wrong day.
func ScoreDelta(l *Lab, from, to int, src netsim.Prefix, d *atlas.Delta) (meanErr float64, answered, pairs int) {
	a := l.Day(from).Atlas.Clone()
	if d != nil {
		if err := a.Apply(d); err != nil {
			panic(fmt.Sprintf("experiments: scoring a delta on day %d: %v", from, err))
		}
	}
	return scoreAtlas(l, from, to, src, a)
}

// scoreAtlas scores src's day-`from` held-out pairs against day-`to`
// truth when served from a. The atlas is used as given (not cloned).
func scoreAtlas(l *Lab, from, to int, src netsim.Prefix, a *atlas.Atlas) (meanErr float64, answered, pairs int) {
	snap := inano.FromAtlas(a).Snapshot()
	sum, n := 0.0, 0
	for _, vp := range l.Day(from).Validation {
		if vp.Src != src {
			continue
		}
		pairs++
		trueRTT, ok := l.W.TrueRTT(to, vp.Src, vp.Dst)
		if !ok {
			continue
		}
		n++
		info, _ := snap.Query(context.Background(), vp.Src, vp.Dst) // the background context never ends
		if info.Found {
			answered++
		}
		sum += feedback.RelErr(info.RTTMS, trueRTT, info.Found)
	}
	if n == 0 {
		return 0, 0, pairs
	}
	return sum / float64(n), answered, pairs
}
