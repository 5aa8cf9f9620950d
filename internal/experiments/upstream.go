package experiments

import (
	"fmt"
	"strings"

	"inano/internal/atlas"
	"inano/internal/feedback"
	"inano/internal/netsim"
)

// UpstreamResult reports the upstream-observation-sharing experiment: N
// reporting clients measure ground-truth RTTs against the served
// predictions and upload the residuals, the build folds the robust
// aggregate into the next day's delta, and a client that never reported
// anything is scored before and after applying that delta — the paper's
// §5 promise that every peer benefits from any peer's probes.
type UpstreamResult struct {
	// Reporters is the number of reporting clients (distinct source
	// clusters); Observations counts what they fed the aggregator.
	Reporters, Observations int
	// AggregatedPrefixes is the snapshot size; FoldedPrefixes how many
	// cleared the min-reporter bar; Corrections how many shipped
	// per-prefix corrections the folded atlas carries.
	AggregatedPrefixes, FoldedPrefixes, Corrections int
	// Pairs is the non-reporting client's held-out workload size.
	Pairs int
	// ErrBefore/ErrAfter are the non-reporter's mean capped relative RTT
	// errors against next-day ground truth, after applying the plain
	// day-roll delta vs the observation-folded one.
	ErrBefore, ErrAfter float64
	// AnsweredBefore/AnsweredAfter count pairs with a prediction.
	AnsweredBefore, AnsweredAfter int

	// Poisoning bound: a single adversarial reporter claiming the maximum
	// residual for every prefix is re-aggregated, and the per-prefix shift
	// it causes is compared against the honest reporters' spread (median
	// with one outlier added can never leave the honest min..max range).
	AdvMaxShiftMS float64
	AdvMaxSpread  float64
	AdvWithin     bool
}

// UpstreamLoop runs the upstream experiment across days 0 -> 1:
// reporters observe day-0 ground truth toward the shared target set,
// residuals are computed against the day-0 served predictions (as
// /v1/observations does), the aggregate folds into the day-0 -> day-1
// delta via atlas.BuildDeltaWithObservations, and the non-reporting
// client (the first validation source, its observations never uploaded)
// is scored on its held-out pairs against day-1 truth with the plain vs
// the folded delta. minReporters gates the fold (3 buys the median's
// single-liar bound).
func UpstreamLoop(l *Lab, reporters, minReporters int) UpstreamResult {
	d0, d1 := l.Day(0), l.Day(1)
	res := UpstreamResult{}

	// The non-reporter is the first validation source; reporters are the
	// rest, capped to the requested count.
	nonReporter := l.ValSrcs[0]
	reps := l.ValSrcs[1:]
	if reporters > 0 && len(reps) > reporters {
		reps = reps[:reporters]
	}
	res.Reporters = len(reps)

	// Collect the reporters' day-0 residuals against the served atlas
	// toward the shared target set (the extracted roll loop the scenario
	// harness also drives).
	dsts := SharedTargets(d0)
	ro := CollectResiduals(l, 0, reps, dsts, minReporters, nil)
	obsSnap, honest := ro.Snapshot, ro.Honest
	agg := ro.Agg
	res.Observations = ro.Observations
	res.AggregatedPrefixes = len(obsSnap.Prefixes)
	residuals := ro.Residuals
	res.FoldedPrefixes = len(residuals)

	plainDelta := atlas.Diff(d0.Atlas, d1.Atlas)
	obsDelta, _, folded := atlas.BuildDeltaWithObservations(d0.Atlas, d1.Atlas, residuals)
	res.Corrections = folded

	// Score the non-reporter's held-out pairs against day-1 truth.
	res.ErrBefore, res.AnsweredBefore, res.Pairs = ScoreDelta(l, 0, 1, nonReporter, plainDelta)
	res.ErrAfter, res.AnsweredAfter, _ = ScoreDelta(l, 0, 1, nonReporter, obsDelta)

	// Poisoning bound: one adversarial reporter (a single source cluster,
	// per the ingest's identity rule) claims the maximum positive residual
	// for every aggregated prefix. The median may move, but never outside
	// the honest reporters' range.
	res.AdvWithin = true
	liar := int32(1 << 30) // a cluster id no honest reporter used
	for _, p := range obsSnap.Prefixes {
		agg.Record(liar, p.Prefix, feedback.MaxAdjustMS)
	}
	advSnap := agg.Snapshot(0)
	advByPrefix := make(map[netsim.Prefix]float64, len(advSnap.Prefixes))
	for _, p := range advSnap.Prefixes {
		advByPrefix[p.Prefix] = p.ResidualMS
	}
	for _, p := range obsSnap.Prefixes {
		hs := honest[p.Prefix]
		if len(hs) < 2 {
			continue // with one honest reporter the median bound needs >= 2
		}
		shift := advByPrefix[p.Prefix] - p.ResidualMS
		if shift < 0 {
			shift = -shift
		}
		lo, hi := hs[0], hs[0]
		for _, h := range hs {
			if h < lo {
				lo = h
			}
			if h > hi {
				hi = h
			}
		}
		spread := hi - lo
		if shift > res.AdvMaxShiftMS {
			res.AdvMaxShiftMS = shift
		}
		if spread > res.AdvMaxSpread {
			res.AdvMaxSpread = spread
		}
		if adv := advByPrefix[p.Prefix]; adv < lo-1e-9 || adv > hi+1e-9 {
			res.AdvWithin = false
		}
	}
	return res
}

// Render formats the upstream experiment.
func (r UpstreamResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Upstream sharing: %d reporters, %d observations -> %d aggregated prefixes (%d folded, %d corrections shipped)\n",
		r.Reporters, r.Observations, r.AggregatedPrefixes, r.FoldedPrefixes, r.Corrections)
	fmt.Fprintf(&b, "  non-reporting client, %d held-out pairs vs day-1 truth:\n", r.Pairs)
	fmt.Fprintf(&b, "  mean RTT error, plain delta    %.3f (answered %d/%d)\n", r.ErrBefore, r.AnsweredBefore, r.Pairs)
	fmt.Fprintf(&b, "  mean RTT error, folded delta   %.3f (answered %d/%d)\n", r.ErrAfter, r.AnsweredAfter, r.Pairs)
	if r.ErrBefore > 0 {
		fmt.Fprintf(&b, "  error reduction: %.1f%%\n", 100*(r.ErrBefore-r.ErrAfter)/r.ErrBefore)
	}
	fmt.Fprintf(&b, "  single-liar shift: max %.2f ms (honest spread up to %.2f ms, within bound: %v)\n",
		r.AdvMaxShiftMS, r.AdvMaxSpread, r.AdvWithin)
	return b.String()
}
