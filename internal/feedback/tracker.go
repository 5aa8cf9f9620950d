package feedback

import (
	"math"
	"sort"
	"sync"
	"time"

	"inano/internal/netsim"
)

// ErrCap bounds one sample's relative error contribution: a missing
// prediction counts as 1.0, a wildly wrong one saturates at 2.0, so a few
// pathological observations cannot monopolize the corrective budget
// forever.
const ErrCap = 2.0

const (
	// trackerAlpha is the EWMA weight of the newest sample.
	trackerAlpha = 0.25
	// trackerMaxEntries caps tracked destination clusters; beyond it the
	// entry with the oldest sample is evicted.
	trackerMaxEntries = 4096
	// trackerStaleAfter excludes destinations whose last sample is older
	// than this from corrective scheduling: stale error says nothing about
	// the current atlas.
	trackerStaleAfter = 15 * time.Minute
)

// Sample is the outcome of recording one observation.
type Sample struct {
	// Cluster is the destination attachment cluster the error was
	// attributed to (-1 when the destination is unknown to the atlas).
	Cluster int32
	// PredictedMS is the RTT the engine predicted (0 when unpredicted).
	PredictedMS float64
	// Err is the capped relative error contributed by this sample.
	Err float64
	// Predicted reports whether a prediction existed for the pair.
	Predicted bool
	// Tracked reports whether the sample entered the tracker.
	Tracked bool
}

// Target is one corrective-probe candidate: the destination cluster to
// re-measure and the representative (src, dst) prefix pair to traceroute.
type Target struct {
	Cluster  int32
	Src, Dst netsim.Prefix
	// Err is the destination's EWMA relative RTT error.
	Err float64
	// Samples is the number of observations behind Err.
	Samples int
}

// Stats summarizes the tracker for metrics and /debug/stats.
type Stats struct {
	// Entries is the number of destination clusters tracked.
	Entries int
	// TotalSamples counts observations recorded since creation.
	TotalSamples int
	// Evicted counts entries dropped to stay within 4096 destinations.
	Evicted int
	// MeanErr is the unweighted mean EWMA error over entries.
	MeanErr float64
	// WorstErr is the largest EWMA error over entries.
	WorstErr float64
}

type entry struct {
	cluster    int32
	src, dst   netsim.Prefix
	ewmaErr    float64
	samples    int
	lastSample time.Time
	corrected  time.Time
}

// Tracker aggregates observed-vs-predicted RTT error per destination
// cluster. It is safe for concurrent use.
type Tracker struct {
	mu      sync.Mutex
	ents    map[int32]*entry
	total   int
	dropped int
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{ents: make(map[int32]*entry)}
}

// RelErr computes the capped relative RTT error of one observation. A
// missing prediction costs 1.0 (the worst a present-but-wrong prediction
// of equal magnitude could score), so unpredictable destinations compete
// for the corrective budget too.
func RelErr(predictedMS, observedMS float64, predicted bool) float64 {
	if !predicted {
		return 1.0
	}
	denom := observedMS
	if denom < 1 {
		denom = 1
	}
	e := math.Abs(observedMS-predictedMS) / denom
	if e > ErrCap {
		e = ErrCap
	}
	return e
}

// Record folds one observation into the per-cluster EWMA. cluster < 0
// (destination unknown to the atlas) is accepted but untracked, so
// callers can still account the sample.
func (t *Tracker) Record(cluster int32, src, dst netsim.Prefix, predictedMS, observedMS float64, predicted bool, now time.Time) Sample {
	s := Sample{Cluster: cluster, PredictedMS: predictedMS, Predicted: predicted}
	s.Err = RelErr(predictedMS, observedMS, predicted)
	if cluster < 0 {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total++
	e := t.ents[cluster]
	if e == nil {
		if len(t.ents) >= trackerMaxEntries {
			t.evictOldestLocked()
		}
		e = &entry{cluster: cluster, ewmaErr: s.Err}
		t.ents[cluster] = e
	} else {
		e.ewmaErr = trackerAlpha*s.Err + (1-trackerAlpha)*e.ewmaErr
	}
	e.samples++
	e.lastSample = now
	e.src, e.dst = src, dst
	s.Tracked = true
	return s
}

// evictOldestLocked drops the entry with the oldest sample.
func (t *Tracker) evictOldestLocked() {
	var victim *entry
	for _, e := range t.ents {
		if victim == nil || e.lastSample.Before(victim.lastSample) {
			victim = e
		}
	}
	if victim != nil {
		delete(t.ents, victim.cluster)
		t.dropped++
	}
}

// Worst ranks the corrective-probe candidates: destinations with a fresh
// observation since their last correction, EWMA error of at least minErr,
// not probed within cooldown, and sampled within the last 15 minutes. The
// score weighs error by sample support, so one noisy observation does not
// outrank a consistently mispredicted popular destination. At most n
// targets are returned, worst first.
func (t *Tracker) Worst(n int, minErr float64, cooldown time.Duration, now time.Time) []Target {
	if n <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	type scored struct {
		tg    Target
		score float64
	}
	var cands []scored
	for _, e := range t.ents {
		if e.samples == 0 || e.ewmaErr < minErr {
			continue
		}
		if now.Sub(e.lastSample) > trackerStaleAfter {
			continue
		}
		if !e.corrected.IsZero() && now.Sub(e.corrected) < cooldown {
			continue
		}
		cands = append(cands, scored{
			tg:    Target{Cluster: e.cluster, Src: e.src, Dst: e.dst, Err: e.ewmaErr, Samples: e.samples},
			score: e.ewmaErr * math.Log2(1+float64(e.samples)),
		})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].tg.Cluster < cands[j].tg.Cluster
	})
	if len(cands) > n {
		cands = cands[:n]
	}
	out := make([]Target, len(cands))
	for i, c := range cands {
		out[i] = c.tg
	}
	return out
}

// MarkCorrected records that a corrective probe was spent on the cluster:
// its sample count resets (it must re-earn eligibility with fresh
// observations against the patched atlas) and its error estimate halves
// rather than clearing, keeping a memory of chronic mispredictions.
func (t *Tracker) MarkCorrected(cluster int32, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.ents[cluster]; e != nil {
		e.corrected = now
		e.samples = 0
		e.ewmaErr /= 2
	}
}

// MarkProbed records that a corrective probe was *attempted* but failed:
// the cluster enters cooldown (a persistently unreachable destination
// must not monopolize every round's budget) but keeps its samples and
// error estimate — nothing was learned about its prediction.
func (t *Tracker) MarkProbed(cluster int32, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.ents[cluster]; e != nil {
		e.corrected = now
	}
}

// Len returns the number of tracked destination clusters.
func (t *Tracker) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ents)
}

// Stats summarizes the tracker.
func (t *Tracker) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := Stats{Entries: len(t.ents), TotalSamples: t.total, Evicted: t.dropped}
	for _, e := range t.ents {
		st.MeanErr += e.ewmaErr
		if e.ewmaErr > st.WorstErr {
			st.WorstErr = e.ewmaErr
		}
	}
	if len(t.ents) > 0 {
		st.MeanErr /= float64(len(t.ents))
	}
	return st
}
