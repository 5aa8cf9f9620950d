package feedback

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"inano/internal/atlas"
	"inano/internal/cluster"
	"inano/internal/netsim"
)

// Aggregator collects upstream observations on the build server and
// reduces them to one robust residual per destination prefix, ready to
// fold into the next atlas delta (atlas.BuildDeltaWithObservations).
//
// Abuse bounds, designed in from day one (the centralized component of an
// otherwise peer-to-peer system is the obvious poisoning target):
//
//   - Reporter identity is the *source attachment cluster* derived from
//     the serving atlas, not anything the reporter claims: rotating source
//     addresses inside one network buys no extra votes.
//   - Observations dedup per (source-cluster, dst-prefix): a reporter's
//     newest residual for a destination replaces its older one instead of
//     stacking.
//   - The per-prefix aggregate is the median over reporters, so a single
//     lying reporter cannot move a prefix's aggregate outside the range of
//     the honest reporters' residuals (for >= 2 honest reporters).
//   - Residual magnitude is capped at MaxAdjustMS per observation, and
//     both the prefix table and the per-prefix reporter sets are bounded
//     with stalest-eviction.
type Aggregator struct {
	mu sync.Mutex

	prefixes map[netsim.Prefix]*prefixAgg
	evicted  int
	// reporters and paths count the slots in use and those holding a hop
	// path, kept as slots come and go so Stats never walks the table
	// under the lock ingest takes.
	reporters, paths int
	nowFn            func() time.Time // test hook
}

const (
	// aggMaxPrefixes caps tracked destination prefixes; beyond it the
	// prefix with the stalest newest-report is evicted.
	aggMaxPrefixes = 8192
	// aggMaxReporters caps reporter slots per prefix; beyond it the
	// stalest reporter is evicted.
	aggMaxReporters = 32
	// aggStaleAfter drops a reporter's residual from aggregation when its
	// newest report is older than this: an aggregate folded into
	// tomorrow's delta should reflect today's measurements.
	aggStaleAfter = 24 * time.Hour
)

// prefixAgg is one destination prefix's reporter table.
type prefixAgg struct {
	reporters map[int32]*reporterObs // keyed by source attachment cluster
	newest    time.Time
}

// reporterObs is one reporter's slot for a prefix: its newest scalar
// residual and/or its newest clusterized hop path. One slot per reporter
// cluster — a reporter re-reporting (or rotating source addresses inside
// its network) replaces its own slot instead of stacking votes. The two
// contributions age independently (residAt/pathAt): a stream of scalar
// re-reports must not keep an obsolete hop path looking fresh. at is the
// slot's newest activity, the eviction key.
type reporterObs struct {
	residualMS  float64
	hasResidual bool
	residAt     time.Time
	path        []cluster.ClusterID
	linkMS      []float64
	pathAt      time.Time
	at          time.Time
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{
		prefixes: make(map[netsim.Prefix]*prefixAgg),
		nowFn:    time.Now,
	}
}

// Record folds one validated observation into the aggregate: the reporter
// at srcCluster observed residualMS (measured - predicted) toward dst.
// The residual is clamped to ±MaxAdjustMS. The caller (the /v1/observations
// handler) is responsible for identity: srcCluster must come from the
// serving atlas's view of the reporting peer, never from the report body.
func (g *Aggregator) Record(srcCluster int32, dst netsim.Prefix, residualMS float64) {
	residualMS = min(max(residualMS, -MaxAdjustMS), MaxAdjustMS)
	g.mu.Lock()
	defer g.mu.Unlock()
	ro := g.reporterSlotLocked(srcCluster, dst)
	ro.residualMS = residualMS
	ro.hasResidual = true
	ro.residAt = ro.at
}

// RecordPath folds one validated, clusterized hop path into the
// aggregate: the reporter at srcCluster observed the destination-side
// tail path (source end first, per-link latency estimates in linkMS)
// toward dst. The same identity rule as Record applies: srcCluster must
// be the serving atlas's view of the reporting peer, so rotating source
// addresses replaces this reporter's stored path instead of adding a
// second agreeing voice. Malformed paths (too short, mismatched linkMS,
// repeated clusters) are dropped — the ingest validates, this re-checks.
func (g *Aggregator) RecordPath(srcCluster int32, dst netsim.Prefix, path []cluster.ClusterID, linkMS []float64) {
	if len(path) < 2 || len(linkMS) != len(path)-1 {
		return
	}
	if len(path) > MaxPathTailClusters {
		path = path[len(path)-MaxPathTailClusters:]
		linkMS = linkMS[len(linkMS)-(len(path)-1):]
	}
	seen := make(map[cluster.ClusterID]bool, len(path))
	for _, c := range path {
		if c < 0 || seen[c] {
			return
		}
		seen[c] = true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	ro := g.reporterSlotLocked(srcCluster, dst)
	if ro.path == nil {
		g.paths++
	}
	ro.path = append([]cluster.ClusterID(nil), path...)
	ro.linkMS = append([]float64(nil), linkMS...)
	ro.pathAt = ro.at
}

// reporterSlotLocked returns (creating and time-stamping) the reporter's
// slot for dst, applying the prefix and per-prefix reporter bounds.
func (g *Aggregator) reporterSlotLocked(srcCluster int32, dst netsim.Prefix) *reporterObs {
	now := g.nowFn()
	pa := g.prefixes[dst]
	if pa == nil {
		if len(g.prefixes) >= aggMaxPrefixes {
			g.evictStalestPrefixLocked()
		}
		pa = &prefixAgg{reporters: make(map[int32]*reporterObs)}
		g.prefixes[dst] = pa
	}
	ro := pa.reporters[srcCluster]
	if ro == nil {
		if len(pa.reporters) >= aggMaxReporters {
			g.evictStalestReporterLocked(pa)
		}
		ro = &reporterObs{}
		pa.reporters[srcCluster] = ro
		g.reporters++
	}
	ro.at = now
	if now.After(pa.newest) {
		pa.newest = now
	}
	return ro
}

func (g *Aggregator) evictStalestPrefixLocked() {
	var victim netsim.Prefix
	var victimAt time.Time
	first := true
	for p, pa := range g.prefixes {
		if first || pa.newest.Before(victimAt) {
			victim, victimAt, first = p, pa.newest, false
		}
	}
	if !first {
		for _, r := range g.prefixes[victim].reporters {
			g.forgetLocked(r)
		}
		delete(g.prefixes, victim)
		g.evicted++
	}
}

func (g *Aggregator) evictStalestReporterLocked(pa *prefixAgg) {
	var victim int32
	var victimAt time.Time
	first := true
	for c, r := range pa.reporters {
		if first || r.at.Before(victimAt) {
			victim, victimAt, first = c, r.at, false
		}
	}
	if !first {
		g.forgetLocked(pa.reporters[victim])
		delete(pa.reporters, victim)
	}
}

// forgetLocked takes an evicted reporter slot out of the running counts.
func (g *Aggregator) forgetLocked(ro *reporterObs) {
	g.reporters--
	if ro.path != nil {
		g.paths--
	}
}

// AggregatedPrefix is one prefix's robust aggregate.
type AggregatedPrefix struct {
	// Prefix is the destination /24.
	Prefix netsim.Prefix `json:"prefix"`
	// ResidualMS is the median over reporters' residuals (measured minus
	// predicted RTT, positive = atlas underpredicts).
	ResidualMS float64 `json:"residual_ms"`
	// Reporters is how many distinct source clusters back the aggregate.
	Reporters int `json:"reporters"`
}

// AggregatedPath is one destination prefix's reporter-voted path tail:
// the longest destination-side cluster sequence any group of reporters
// shares, with per-link vote counts so the consumer can trim it to its
// own agreement bar (see AgreedPaths).
type AggregatedPath struct {
	// Prefix is the destination /24 the tail leads to.
	Prefix netsim.Prefix `json:"prefix"`
	// Clusters is the tail, source end first, destination attachment last.
	Clusters []cluster.ClusterID `json:"clusters"`
	// LinkMS is the per-link one-way latency estimate, the median over
	// the reporters agreeing on that link (len = len(Clusters)-1).
	LinkMS []float64 `json:"link_ms"`
	// LinkReporters is how many distinct reporter clusters' paths contain
	// each link at this position; counts never decrease toward the
	// destination (paths converge there), so trimming to an agreement
	// threshold always keeps a destination-side suffix.
	LinkReporters []int `json:"link_reporters"`
}

// ObservationSnapshot is the durable form of an aggregation round: what
// the build pipeline folds into the next delta.
type ObservationSnapshot struct {
	// Day is the serving atlas day the residuals were measured against.
	Day int `json:"day"`
	// TakenUnix is when the snapshot was cut (Unix seconds).
	TakenUnix int64 `json:"taken_unix"`
	// Prefixes holds one robust aggregate per destination prefix, sorted
	// by prefix.
	Prefixes []AggregatedPrefix `json:"prefixes"`
	// Paths holds one voted path tail per destination prefix that had
	// structural reports, sorted by prefix.
	Paths []AggregatedPath `json:"paths,omitempty"`
}

// Residuals indexes the snapshot for the fold: prefix -> median residual,
// keeping only aggregates backed by at least minReporters distinct source
// clusters (minReporters < 1 means 1). Callers wanting the single-liar
// median bound should require at least 3.
func (s *ObservationSnapshot) Residuals(minReporters int) map[netsim.Prefix]float64 {
	if minReporters < 1 {
		minReporters = 1
	}
	out := make(map[netsim.Prefix]float64, len(s.Prefixes))
	for _, p := range s.Prefixes {
		if p.Reporters >= minReporters {
			out[p.Prefix] = p.ResidualMS
		}
	}
	return out
}

// Snapshot cuts the current aggregate: per prefix, the median residual
// over reporters whose newest report is fresher than 24 hours, plus the
// reporter-voted path tail for prefixes with structural reports. day
// labels the atlas the residuals were measured against.
func (g *Aggregator) Snapshot(day int) ObservationSnapshot {
	now := g.nowFn()
	g.mu.Lock()
	defer g.mu.Unlock()
	snap := ObservationSnapshot{Day: day, TakenUnix: now.Unix()}
	for p, pa := range g.prefixes {
		var resids []float64
		var paths []*reporterObs
		for _, r := range pa.reporters {
			if r.hasResidual && now.Sub(r.residAt) <= aggStaleAfter {
				resids = append(resids, r.residualMS)
			}
			if len(r.path) >= 2 && now.Sub(r.pathAt) <= aggStaleAfter {
				paths = append(paths, r)
			}
		}
		if len(resids) > 0 {
			snap.Prefixes = append(snap.Prefixes, AggregatedPrefix{
				Prefix:     p,
				ResidualMS: median(resids),
				Reporters:  len(resids),
			})
		}
		if ap, ok := votePathTail(p, paths); ok {
			snap.Paths = append(snap.Paths, ap)
		}
	}
	sort.Slice(snap.Prefixes, func(i, j int) bool { return snap.Prefixes[i].Prefix < snap.Prefixes[j].Prefix })
	sort.Slice(snap.Paths, func(i, j int) bool { return snap.Paths[i].Prefix < snap.Paths[j].Prefix })
	return snap
}

// votePathTail reduces one prefix's stored reporter paths to the voted
// destination-side tail. Walking backward from the destination end, each
// step keeps the reporters whose paths agree on the cluster at that
// depth (majority group, ties to the smaller cluster ID); the group can
// only shrink as the walk moves toward the sources, which is what makes
// per-link vote counts monotone toward the destination and lets a single
// fabricating reporter carry a chain no further than its own vote.
func votePathTail(p netsim.Prefix, paths []*reporterObs) (AggregatedPath, bool) {
	if len(paths) == 0 {
		return AggregatedPath{}, false
	}
	var revClusters []cluster.ClusterID
	var revLinkMS []float64
	var revVotes []int
	active := paths
	for depth := 0; ; depth++ {
		groups := make(map[cluster.ClusterID][]*reporterObs)
		for _, r := range active {
			if len(r.path) <= depth {
				continue
			}
			c := r.path[len(r.path)-1-depth]
			groups[c] = append(groups[c], r)
		}
		best, bestN := cluster.ClusterID(-1), 0
		for c, g := range groups {
			if len(g) > bestN || (len(g) == bestN && c < best) {
				best, bestN = c, len(g)
			}
		}
		if bestN == 0 || len(revClusters) >= MaxPathTailClusters {
			break
		}
		active = groups[best]
		revClusters = append(revClusters, best)
		if depth > 0 {
			// The link from this cluster into the previous (more
			// destination-ward) one; every active reporter's path
			// contains it at this depth.
			var lats []float64
			for _, r := range active {
				i := len(r.path) - 1 - depth // index of `best` in r.path
				lats = append(lats, r.linkMS[i])
			}
			revLinkMS = append(revLinkMS, median(lats))
			revVotes = append(revVotes, len(active))
		}
	}
	if len(revClusters) < 2 {
		return AggregatedPath{}, false
	}
	n := len(revClusters)
	ap := AggregatedPath{
		Prefix:        p,
		Clusters:      make([]cluster.ClusterID, n),
		LinkMS:        make([]float64, n-1),
		LinkReporters: make([]int, n-1),
	}
	for i, c := range revClusters {
		ap.Clusters[n-1-i] = c
	}
	for i := range revLinkMS {
		ap.LinkMS[n-2-i] = revLinkMS[i]
		ap.LinkReporters[n-2-i] = revVotes[i]
	}
	return ap, true
}

// MinPathReporters is the hard floor on reporter agreement behind any
// shipped path structure: a single reporter — however it rotates source
// addresses — can never turn its own hop lists into atlas structure.
const MinPathReporters = 2

// AgreedPaths converts the snapshot's voted tails into fold-ready paths,
// trimming each to the longest destination-side suffix every link of
// which at least minReporters distinct reporter clusters agree on.
// minReporters below MinPathReporters is raised to it; callers wanting a
// strict single-liar bound should require at least 3 (with 2, one honest
// and one lying reporter tie and the smaller cluster ID wins). Snapshots
// come off disk (LoadSnapshot), so structurally inconsistent entries —
// truncated writes, hand edits — are skipped, never trusted.
func (s ObservationSnapshot) AgreedPaths(minReporters int) []atlas.ObservedPath {
	if minReporters < MinPathReporters {
		minReporters = MinPathReporters
	}
	var out []atlas.ObservedPath
	for _, ap := range s.Paths {
		if len(ap.Clusters) < 2 ||
			len(ap.LinkMS) != len(ap.Clusters)-1 ||
			len(ap.LinkReporters) != len(ap.LinkMS) {
			continue // malformed snapshot entry
		}
		// Votes are monotone non-decreasing toward the destination; scan
		// backward while the agreement bar holds.
		start := len(ap.LinkMS)
		for start > 0 && ap.LinkReporters[start-1] >= minReporters {
			start--
		}
		if len(ap.Clusters)-start < 2 {
			continue
		}
		out = append(out, atlas.ObservedPath{
			Dst:      ap.Prefix,
			Clusters: append([]cluster.ClusterID(nil), ap.Clusters[start:]...),
			LinkMS:   append([]float64(nil), ap.LinkMS[start:]...),
		})
	}
	return out
}

// AggregatorStats summarizes the aggregator for metrics.
type AggregatorStats struct {
	// Prefixes is the number of destination prefixes tracked.
	Prefixes int
	// Reporters is the total reporter slots in use across prefixes.
	Reporters int
	// Paths is how many reporter slots hold a clusterized hop path.
	Paths int
	// EvictedPrefixes counts prefixes dropped to stay within 8192 prefixes.
	EvictedPrefixes int
}

// Stats summarizes the aggregator. It reads running counts, so a scrape
// holds the lock for no longer when the aggregate is full.
func (g *Aggregator) Stats() AggregatorStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return AggregatorStats{
		Prefixes:        len(g.prefixes),
		Reporters:       g.reporters,
		Paths:           g.paths,
		EvictedPrefixes: g.evicted,
	}
}

// median returns the middle residual (mean of the middle two for even
// counts). xs is mutated (sorted).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// SaveSnapshot writes the snapshot as JSON, atomically (temp file +
// rename), so a build pipeline reading the path never sees a torn write.
func SaveSnapshot(path string, s ObservationSnapshot) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".obs-snapshot-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadSnapshot reads a snapshot written by SaveSnapshot.
func LoadSnapshot(path string) (ObservationSnapshot, error) {
	var s ObservationSnapshot
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("feedback: snapshot %s: %w", path, err)
	}
	return s, nil
}
