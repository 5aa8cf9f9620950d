package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	inano "inano"
	"inano/internal/atlas"
	"inano/internal/cluster"
	"inano/internal/feedback"
	"inano/internal/netsim"
	"inano/internal/trace"
)

// UpstreamStructureResult reports the structural upstream-sharing
// experiment: reporting clients traceroute destinations the measurement
// campaign never probed, upload the hop lists, the ingest clusterizes
// them against the day-0 atlas, the aggregator votes tails across
// reporters, and the build folds the agreed structure into the day-0 ->
// day-1 delta. A client that never reported anything is then scored on
// *hop-level path accuracy* toward those destinations — the coverage
// claim of the paper's §5 loop made structural, not just scalar.
type UpstreamStructureResult struct {
	// Reporters is the number of reporting clients (distinct source
	// clusters); HiddenDsts how many campaign-invisible destinations they
	// probed; Uploads/RejectedUploads what their hop lists yielded at
	// ingest.
	Reporters, HiddenDsts, Uploads, RejectedUploads int
	// VotedPaths is the snapshot's voted tail count; AgreedPaths how many
	// cleared the per-link agreement bar; fold statistics follow.
	VotedPaths, AgreedPaths int
	Fold                    atlas.PathFoldStats
	// Pairs is the non-reporting client's held-out workload (one pair per
	// hidden destination with day-1 ground truth).
	Pairs int
	// AccBefore/AccAfter are the non-reporter's mean hop-level path
	// accuracy (Jaccard overlap between the predicted cluster path and
	// the clusterized ground-truth traceroute; unanswered pairs score 0)
	// after applying the plain day-roll delta vs the structure-folded one.
	AccBefore, AccAfter float64
	// AnsweredBefore/AnsweredAfter count pairs with any prediction.
	AnsweredBefore, AnsweredAfter int

	// Poisoning bound: one adversarial reporter (a single source cluster)
	// uploads a fabricated tail for every hidden destination.
	// FabricatedShipped counts fabricated links that survived agreement
	// and reached the folded atlas — the eval fails unless it is zero.
	FabricatedLinks, FabricatedShipped int
}

// UpstreamStructure runs the structural upstream experiment across days
// 0 -> 1. minReporters gates both the per-link agreement bar and, at 3+,
// buys the strict single-liar bound the eval asserts.
func UpstreamStructure(l *Lab, reporters, minReporters int) UpstreamStructureResult {
	d0, d1 := l.Day(0), l.Day(1)
	res := UpstreamStructureResult{}

	nonReporter := l.ValSrcs[0]
	reps := l.ValSrcs[1:]
	if reporters > 0 && len(reps) > reporters {
		reps = reps[:reporters]
	}
	res.Reporters = len(reps)

	// Hidden destinations: edge prefixes the campaign never targeted, so
	// neither day's atlas can place them — "destinations only reporters
	// could see". Cap the set to keep quick runs quick.
	hidden := hiddenDestinations(l, d0, d1, 48)
	res.HiddenDsts = len(hidden)

	resolve0 := atlasResolver(d0.Atlas)
	srcClusterOf := func(p netsim.Prefix) (int32, bool) {
		c, ok := d0.Atlas.PrefixCluster[p]
		return int32(c), ok
	}

	// Reporters probe the hidden destinations on day 0 and upload hop
	// lists; the ingest clusterizes each against the day-0 serving atlas
	// (exactly what /v1/observations does) and stores it under the
	// reporter's source cluster for agreement voting.
	agg := feedback.NewAggregator()
	for _, r := range reps {
		srcCl, ok := srcClusterOf(r)
		if !ok {
			continue
		}
		for _, dst := range hidden {
			tr := d0.Meter.Traceroute(r, dst)
			hops := feedbackHops(tr.Hops)
			path, linkMS, err := feedback.ClusterizeHops(hops, dst, resolve0)
			if err != nil || len(path) < 2 {
				res.RejectedUploads++
				continue
			}
			agg.RecordPath(srcCl, dst, path, linkMS)
			res.Uploads++
		}
	}

	// The adversarial reporter: one source cluster no honest reporter
	// uses, fabricating for every hidden destination a tail over real
	// cluster IDs joined by a link that does not exist — the most a
	// structure poisoner can attempt within the wire format.
	liar := int32(1 << 30)
	fa, fb := fabricatedLink(d1.Atlas)
	res.FabricatedLinks = len(hidden)
	for _, dst := range hidden {
		agg.RecordPath(liar, dst, []cluster.ClusterID{fa, fb}, []float64{1})
	}

	snap := agg.Snapshot(0)
	res.VotedPaths = len(snap.Paths)
	agreed := snap.AgreedPaths(minReporters)
	res.AgreedPaths = len(agreed)

	plainDelta := atlas.Diff(d0.Atlas, d1.Atlas)
	folded := d1.Atlas.Clone()
	res.Fold = atlas.FoldPaths(folded, agreed)
	obsDelta := atlas.Diff(d0.Atlas, folded)

	if folded.LinkAt(fa, fb) >= 0 {
		res.FabricatedShipped = res.FabricatedLinks
	}

	// Score the non-reporter's hop-level accuracy toward the hidden
	// destinations against day-1 ground truth. Truth is the clusterized
	// ground-truth traceroute under the folded day-1 mapping (a superset
	// of the plain one, so both predictors are scored against the same
	// reference).
	resolveTruth := atlasResolver(folded)
	type pair struct {
		dst   netsim.Prefix
		truth map[cluster.ClusterID]bool
	}
	var work []pair
	for _, dst := range hidden {
		tr := d1.Meter.Traceroute(nonReporter, dst)
		truth := truthClusters(feedbackHops(tr.Hops), dst, resolveTruth)
		if len(truth) < 2 {
			continue
		}
		work = append(work, pair{dst: dst, truth: truth})
	}
	res.Pairs = len(work)

	score := func(d *atlas.Delta) (float64, int) {
		a := d0.Atlas.Clone()
		if err := a.Apply(d); err != nil {
			panic(fmt.Sprintf("experiments: scoring a delta on day 0: %v", err)) // both are diffed against d0
		}
		snap := inano.FromAtlas(a).Snapshot()
		sum, answered := 0.0, 0
		for _, w := range work {
			info, _ := snap.Query(context.Background(), nonReporter, w.dst) // the background context never ends
			pred := info.Fwd
			if !pred.Found {
				continue
			}
			answered++
			sum += jaccardClusters(pred.Clusters, w.truth)
		}
		if len(work) == 0 {
			return 0, 0
		}
		return sum / float64(len(work)), answered
	}
	res.AccBefore, res.AnsweredBefore = score(plainDelta)
	res.AccAfter, res.AnsweredAfter = score(obsDelta)
	return res
}

// hiddenDestinations picks edge prefixes neither day's atlas can place —
// destinations invisible to the measurement campaign.
func hiddenDestinations(l *Lab, d0, d1 *DayData, max int) []netsim.Prefix {
	var out []netsim.Prefix
	for _, p := range l.W.EdgePrefixes() {
		if _, ok := d0.Atlas.PrefixCluster[p]; ok {
			continue
		}
		if _, ok := d1.Atlas.PrefixCluster[p]; ok {
			continue
		}
		out = append(out, p)
		if len(out) >= max {
			break
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// atlasResolver maps a hop interface's /24 to its cluster the way the serving
// daemon's Snapshot.HopCluster does: the interface-prefix table first,
// the end-host attachment table as fallback.
func atlasResolver(a *atlas.Atlas) func(netsim.Prefix) (int32, bool) {
	return func(p netsim.Prefix) (int32, bool) {
		if c, ok := a.IfaceCluster[p]; ok {
			return int32(c), true
		}
		c, ok := a.PrefixCluster[p]
		return int32(c), ok
	}
}

// feedbackHops converts measured trace hops to the wire-format hop type.
func feedbackHops(hops []trace.Hop) []feedback.Hop {
	out := make([]feedback.Hop, len(hops))
	for i, h := range hops {
		out[i] = feedback.Hop{IP: h.IP, RTTMS: h.RTTMS}
	}
	return out
}

// truthClusters clusterizes a ground-truth traceroute leniently: every
// mappable responsive infrastructure hop contributes its cluster (gaps
// and unknown hops are skipped, not rejected — truth is a reference set,
// not an upload to validate).
func truthClusters(hops []feedback.Hop, dst netsim.Prefix, resolve func(netsim.Prefix) (int32, bool)) map[cluster.ClusterID]bool {
	out := make(map[cluster.ClusterID]bool)
	for _, h := range hops {
		if h.IP == 0 || netsim.PrefixOf(h.IP) == dst {
			continue
		}
		if c, ok := resolve(netsim.PrefixOf(h.IP)); ok {
			out[cluster.ClusterID(c)] = true
		}
	}
	return out
}

// jaccardClusters scores a predicted cluster path against the truth set.
func jaccardClusters(pred []cluster.ClusterID, truth map[cluster.ClusterID]bool) float64 {
	if len(pred) == 0 || len(truth) == 0 {
		return 0
	}
	inter := 0
	predSet := make(map[cluster.ClusterID]bool, len(pred))
	for _, c := range pred {
		predSet[c] = true
	}
	for c := range predSet {
		if truth[c] {
			inter++
		}
	}
	union := len(truth) + len(predSet) - inter
	return float64(inter) / float64(union)
}

// fabricatedLink picks a directed cluster pair absent from the atlas —
// the liar's forged structure. Deterministic: the two highest cluster IDs
// with no link between them.
func fabricatedLink(a *atlas.Atlas) (cluster.ClusterID, cluster.ClusterID) {
	n := cluster.ClusterID(a.NumClusters)
	for x := n - 1; x >= 1; x-- {
		for y := x - 1; y >= 0; y-- {
			if a.LinkAt(x, y) < 0 {
				return x, y
			}
		}
	}
	return 0, 0
}

// Render formats the structural upstream experiment.
func (r UpstreamStructureResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Upstream structure: %d reporters x %d hidden destinations -> %d uploads (%d rejected)\n",
		r.Reporters, r.HiddenDsts, r.Uploads, r.RejectedUploads)
	fmt.Fprintf(&b, "  %d voted tails, %d agreed; folded: %d new links, %d refreshed, %d measured, %d new attachments (%d paths skipped)\n",
		r.VotedPaths, r.AgreedPaths, r.Fold.NewLinks, r.Fold.RefreshedLinks, r.Fold.MeasuredLinks, r.Fold.NewAttach, r.Fold.PathsSkipped)
	fmt.Fprintf(&b, "  non-reporting client, %d pairs vs day-1 truth (hop-level Jaccard):\n", r.Pairs)
	fmt.Fprintf(&b, "  path accuracy, plain delta     %.3f (answered %d/%d)\n", r.AccBefore, r.AnsweredBefore, r.Pairs)
	fmt.Fprintf(&b, "  path accuracy, folded delta    %.3f (answered %d/%d)\n", r.AccAfter, r.AnsweredAfter, r.Pairs)
	if r.AccBefore > 0 {
		fmt.Fprintf(&b, "  accuracy gain: %.1f%%\n", 100*(r.AccAfter-r.AccBefore)/r.AccBefore)
	}
	fmt.Fprintf(&b, "  single liar: %d fabricated links uploaded, %d shipped\n", r.FabricatedLinks, r.FabricatedShipped)
	return b.String()
}
