package experiments

import (
	"fmt"
	"slices"
	"strings"

	"inano/internal/cluster"
	"inano/internal/core"
	"inano/internal/netsim"
	"inano/internal/pathcomp"
	"inano/internal/routescope"
)

// AccuracyBar is one technique's AS-path prediction accuracy (a bar of
// Fig. 5): the fraction of validation paths predicted exactly and the
// fraction whose AS-path length was right.
type AccuracyBar struct {
	Name       string
	Exact      float64
	LengthOnly float64
	Answered   float64 // fraction of pairs for which a prediction existed
}

// Fig5Result reproduces Fig. 5, the technique-by-technique ablation, plus
// the §6.3.1 coverage bound (the fraction of validation paths whose links
// the atlas saw at all, which caps any link-composition technique).
type Fig5Result struct {
	Bars          []AccuracyBar
	Pairs         int
	CoverageBound float64
}

// Fig5Accuracy scores every predictor on the held-out validation pairs.
func Fig5Accuracy(l *Lab) Fig5Result {
	dd := l.Day(0)
	truth := make([][]netsim.ASN, 0, len(dd.Validation))
	pairs := make([]VPair, 0, len(dd.Validation))
	for _, vp := range dd.Validation {
		t, ok := dd.Day.ASPath(l.W.Top.PrefixOrigin[vp.Src], vp.Dst)
		if !ok {
			continue
		}
		truth = append(truth, t)
		pairs = append(pairs, vp)
	}
	res := Fig5Result{Pairs: len(pairs)}

	// RouteScope baseline: AS-graph-only valley-free shortest paths with
	// Gao-inferred relationships, one random choice per pair.
	paths := dd.ObservedASPaths(l.W.Top.PrefixOrigin)
	rs := routescope.New(paths, cluster.InferRelationships(paths), l.Cfg.Seed)
	res.Bars = append(res.Bars, scoreFunc("RouteScope", pairs, truth, func(p VPair) ([]netsim.ASN, bool) {
		got, _, ok := rs.Predict(l.W.Top.PrefixOrigin[p.Src], l.W.Top.PrefixOrigin[p.Dst])
		return got, ok
	}))

	// The GRAPH -> iNano ablation.
	variants := []struct {
		name string
		opts core.Options
	}{
		{"GRAPH", core.GraphOptions()},
		{"GRAPH+asymmetry", core.Options{Asymmetry: true}},
		{"+3-tuples", core.Options{Asymmetry: true, ThreeTuple: true}},
		{"+preferences", core.Options{Asymmetry: true, ThreeTuple: true, Preferences: true}},
		{"iNano (+providers)", core.INanoOptions()},
	}
	for _, v := range variants {
		e := core.New(dd.Atlas, v.opts)
		res.Bars = append(res.Bars, scoreFunc(v.name, pairs, truth, func(p VPair) ([]netsim.ASN, bool) {
			pred := e.PredictForward(p.Src, p.Dst)
			return pred.ASPath, pred.Found
		}))
	}

	// Path composition (iPlane) and its improved variant.
	pa := dd.PathAtlas()
	res.Bars = append(res.Bars, scoreFunc("path-based (iPlane)", pairs, truth, func(p VPair) ([]netsim.ASN, bool) {
		pred := pa.Predict(p.Src, p.Dst, pathcomp.Options{})
		return pred.ASPath, pred.Found
	}))
	res.Bars = append(res.Bars, scoreFunc("improved path-based", pairs, truth, func(p VPair) ([]netsim.ASN, bool) {
		pred := pa.Predict(p.Src, p.Dst, pathcomp.Options{Improved: true})
		return pred.ASPath, pred.Found
	}))

	// Coverage bound (§6.3.1): fraction of validation paths all of whose
	// PoP-level links appear in the atlas.
	covered := 0
	for _, vp := range pairs {
		if pathCovered(l, dd, vp) {
			covered++
		}
	}
	if len(pairs) > 0 {
		res.CoverageBound = float64(covered) / float64(len(pairs))
	}
	return res
}

// scoreFunc evaluates one predictor over the validation set. Unanswered
// pairs count as wrong, as in the paper's accuracy fractions.
func scoreFunc(name string, pairs []VPair, truth [][]netsim.ASN, predict func(VPair) ([]netsim.ASN, bool)) AccuracyBar {
	bar := AccuracyBar{Name: name}
	if len(pairs) == 0 {
		return bar
	}
	exact, length, answered := 0, 0, 0
	for i, p := range pairs {
		got, ok := predict(p)
		if !ok {
			continue
		}
		answered++
		if slices.Equal(truth[i], got) {
			exact++
		}
		if len(truth[i]) == len(got) {
			length++
		}
	}
	n := float64(len(pairs))
	bar.Exact = float64(exact) / n
	bar.LengthOnly = float64(length) / n
	bar.Answered = float64(answered) / n
	return bar
}

// pathCovered reports whether every inter-cluster link of the ground-truth
// path appears in the day's atlas.
func pathCovered(l *Lab, dd *DayData, vp VPair) bool {
	home, ok := l.W.Top.PrefixHome[vp.Src]
	if !ok {
		return false
	}
	path, ok := dd.Day.PoPPath(home, vp.Dst)
	if !ok {
		return false
	}
	// Map ground-truth PoPs onto observed clusters. A PoP may split into
	// several clusters (imperfect alias resolution), so each PoP maps to
	// a set and a link is covered when any cluster combination is in the
	// atlas.
	popClusters := dd.popClusterSets(l)
	var prev []cluster.ClusterID
	for _, h := range path.Hops {
		cs := popClusters[h.PoP]
		if len(cs) == 0 {
			return false
		}
		if prev != nil {
			found := false
		outer:
			for _, p := range prev {
				for _, c := range cs {
					if p == c || dd.Atlas.LinkAt(p, c) >= 0 {
						found = true
						break outer
					}
				}
			}
			if !found {
				return false
			}
		}
		prev = cs
	}
	return true
}

// popClusterSets caches the PoP -> observed clusters mapping per day.
func (dd *DayData) popClusterSets(l *Lab) map[netsim.PoPID][]cluster.ClusterID {
	dd.popOnce.Do(func() {
		m := make(map[netsim.PoPID][]cluster.ClusterID)
		for ip, c := range dd.ClusterOf {
			p := l.W.Top.RouterPoP(ip)
			dup := false
			for _, x := range m[p] {
				if x == c {
					dup = true
					break
				}
			}
			if !dup {
				m[p] = append(m[p], c)
			}
		}
		dd.popClusters = m
	})
	return dd.popClusters
}

// Render formats the Fig. 5 bars.
func (r Fig5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 5: AS-path prediction accuracy over %d held-out paths\n", r.Pairs)
	fmt.Fprintf(&b, "%-22s %8s %10s %10s\n", "technique", "exact", "len-match", "answered")
	for _, bar := range r.Bars {
		fmt.Fprintf(&b, "%-22s %7.0f%% %9.0f%% %9.0f%%\n", bar.Name, bar.Exact*100, bar.LengthOnly*100, bar.Answered*100)
	}
	fmt.Fprintf(&b, "atlas link-coverage bound: %.0f%% of paths fully observed (paper: 93%%)\n", r.CoverageBound*100)
	fmt.Fprintf(&b, "(paper: RouteScope<31%%, GRAPH 31%%, iNano 70%%, path-based 70%%, improved 81%%)\n")
	return b.String()
}
