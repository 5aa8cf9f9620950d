// Package experiments regenerates every table and figure of the paper's
// evaluation (§6-§7) against the synthetic-Internet substrate. Each
// experiment returns a structured result with a Render method producing the
// rows/series the paper reports; cmd/inano-eval and the repository's
// benchmark harness drive them.
//
// Methodology follows §6.3: a random subset of vantage points act as
// representative end hosts, a hash-selected quarter of their traceroutes is
// held out as the validation set, and the atlas is built from everything
// else — so the predictor never saw the exact paths it is scored on, while
// the sources' remaining traceroutes populate the FROM_SRC plane.
package experiments

import (
	"sort"
	"sync"

	"inano/internal/atlas"
	"inano/internal/bgpsim"
	"inano/internal/cluster"
	"inano/internal/netsim"
	"inano/internal/pathcomp"
	"inano/internal/trace"
	"inano/sim"
)

// Config sizes the evaluation.
type Config struct {
	Scale sim.Scale
	Seed  int64
	// NumVPs is the vantage point count (paper: 197).
	NumVPs int
	// NumTargets caps probe targets (0 = every edge prefix; paper: 140K).
	NumTargets int
	// ValidationSrcs is how many vantage points act as representative
	// end hosts (paper: 37).
	ValidationSrcs int
}

// QuickConfig is a fast configuration for tests and benchmarks.
func QuickConfig(seed int64) Config {
	return Config{Scale: sim.Tiny, Seed: seed, NumVPs: 14, NumTargets: 90, ValidationSrcs: 6}
}

// EvalConfig is the full paper-reproduction configuration.
func EvalConfig(seed int64) Config {
	return Config{Scale: sim.Eval, Seed: seed, NumVPs: 197, NumTargets: 2400, ValidationSrcs: 37}
}

// MediumConfig sits between the two; cmd/inano-eval's default.
func MediumConfig(seed int64) Config {
	return Config{Scale: sim.Medium, Seed: seed, NumVPs: 60, NumTargets: 600, ValidationSrcs: 15}
}

// VPair is one held-out validation pair.
type VPair struct {
	Src, Dst netsim.Prefix
}

// DayData bundles one day's campaign, atlas, and validation split.
type DayData struct {
	Day         *bgpsim.Day
	Meter       *trace.Meter
	AllTraces   []trace.Traceroute
	AtlasTraces []trace.Traceroute
	Validation  []VPair
	// ClientTraces are the validation sources' non-held-out traceroutes;
	// per §6.3 they feed only the FROM_SRC plane, never TO_DST.
	ClientTraces []trace.Traceroute
	Atlas        *atlas.Atlas
	Clusters     *cluster.Clustering
	ClusterOf    map[netsim.IP]cluster.ClusterID
	// campaign is the day's campaign with the held-out split applied: its
	// VPTraces are AtlasTraces, its ClientTraces ClientTraces.
	campaign    *sim.Campaign
	pathAtlas   *pathcomp.Atlas
	pathOnce    sync.Once
	popClusters map[netsim.PoPID][]cluster.ClusterID
	popOnce     sync.Once
}

// Lab owns the world and per-day data, built lazily and cached.
type Lab struct {
	Cfg     Config
	W       *sim.World
	VPs     []netsim.Prefix
	Targets []netsim.Prefix
	// ValSrcs are the representative end hosts.
	ValSrcs []netsim.Prefix

	mu   sync.Mutex
	days map[int]*DayData
}

// NewLab generates the world and fixes the campaign population.
func NewLab(cfg Config) *Lab {
	w := sim.NewWorld(cfg.Scale, cfg.Seed)
	vps := w.VantagePoints(cfg.NumVPs)
	targets := w.EdgePrefixes()
	if cfg.NumTargets > 0 && len(targets) > cfg.NumTargets {
		targets = targets[:cfg.NumTargets]
	}
	// Targets must include the vantage points' own prefixes so reverse
	// paths toward them are predictable (the paper probes ~90% of the
	// edge, which covers PlanetLab's prefixes).
	targets = append([]netsim.Prefix(nil), targets...)
	seen := make(map[netsim.Prefix]bool, len(targets))
	for _, p := range targets {
		seen[p] = true
	}
	for _, vp := range vps {
		if !seen[vp] {
			targets = append(targets, vp)
			seen[vp] = true
		}
	}
	l := &Lab{
		Cfg:     cfg,
		W:       w,
		VPs:     vps,
		Targets: targets,
		days:    make(map[int]*DayData),
	}
	n := cfg.ValidationSrcs
	if n > len(vps) {
		n = len(vps)
	}
	l.ValSrcs = vps[:n]
	return l
}

// holdoutMod holds out one (src,dst) traceroute in holdoutMod for
// validation: those whose hash is 0 modulo it.
const holdoutMod = 4

// heldOut reports whether the (src,dst) traceroute belongs to the
// validation set.
func (l *Lab) heldOut(src, dst netsim.Prefix) bool {
	h := uint64(src)*0x9e3779b97f4a7c15 ^ uint64(dst)*0xbf58476d1ce4e5b9 ^ uint64(l.Cfg.Seed)
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	h ^= h >> 32
	return h%holdoutMod == 0
}

func (l *Lab) isValSrc(p netsim.Prefix) bool {
	for _, s := range l.ValSrcs {
		if s == p {
			return true
		}
	}
	return false
}

// Day builds (or returns) everything for one simulated day.
func (l *Lab) Day(d int) *DayData {
	l.mu.Lock()
	if dd, ok := l.days[d]; ok {
		l.mu.Unlock()
		return dd
	}
	l.mu.Unlock()

	c := l.W.Measure(sim.CampaignOptions{Day: d, VPs: l.VPs, Targets: l.Targets})
	dd := &DayData{
		Day:       l.W.Sim.Day(d),
		Meter:     c.Meter(),
		AllTraces: c.VPTraces,
	}
	// Per §6.3: a validation source's held-out traceroutes become the
	// validation set; its remaining traceroutes go to the FROM_SRC plane
	// only (the paper: "links from 100 other randomly chosen traceroutes
	// from this source in the FROM_SRC plane"), while the other vantage
	// points' traceroutes form TO_DST.
	var clientTraces []trace.Traceroute
	for _, tr := range c.VPTraces {
		fromVal := l.isValSrc(tr.Src)
		if fromVal && l.heldOut(tr.Src, tr.Dst) {
			if tr.Src != tr.Dst {
				dd.Validation = append(dd.Validation, VPair{Src: tr.Src, Dst: tr.Dst})
			}
			continue
		}
		if fromVal {
			clientTraces = append(clientTraces, tr)
		} else {
			dd.AtlasTraces = append(dd.AtlasTraces, tr)
		}
	}
	dd.ClientTraces = clientTraces
	// Cluster today's interfaces, then stabilize IDs against the previous
	// day's clustering — the server's persistent registry — so deltas
	// compare like with like.
	c.VPTraces, c.ClientTraces = dd.AtlasTraces, clientTraces
	var prev *cluster.Clustering
	if d > 0 {
		prev = l.Day(d - 1).Clusters
	}
	dd.campaign = c
	dd.Clusters = c.Clusters(prev)
	dd.ClusterOf = dd.Clusters.ClusterOf
	dd.Atlas = c.BuildAtlasOver(dd.Clusters)

	l.mu.Lock()
	l.days[d] = dd
	l.mu.Unlock()
	return dd
}

// PathAtlas lazily builds the iPlane path-composition baseline's atlas for
// the day. It includes the validation sources' kept traceroutes: path
// composition's first segment is "a path out from the source", which in the
// paper comes from the same FROM_SRC measurements.
func (dd *DayData) PathAtlas() *pathcomp.Atlas {
	dd.pathOnce.Do(func() {
		all := make([]trace.Traceroute, 0, len(dd.AtlasTraces)+len(dd.ClientTraces))
		all = append(all, dd.AtlasTraces...)
		all = append(all, dd.ClientTraces...)
		dd.pathAtlas = pathcomp.BuildFromTraces(all, dd.ClusterOf, dd.Atlas)
	})
	return dd.pathAtlas
}

// ObservedASPaths extracts loop-free AS paths from the day's contributed
// traces (both planes).
func (dd *DayData) ObservedASPaths(prefixAS map[netsim.Prefix]netsim.ASN) [][]netsim.ASN {
	var out [][]netsim.ASN
	collect := func(trs []trace.Traceroute) {
		for _, tr := range trs {
			ips := make([]netsim.IP, len(tr.Hops))
			for i, h := range tr.Hops {
				ips[i] = h.IP
			}
			if p, ok := cluster.ASPathOf(ips, prefixAS); ok && len(p) >= 2 {
				out = append(out, p)
			}
		}
	}
	collect(dd.AtlasTraces)
	collect(dd.ClientTraces)
	return out
}

// median returns the p-quantile (0..1) of xs (copied, then sorted).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	i := int(p * float64(len(cp)-1))
	return cp[i]
}

// cdfFrac returns the fraction of xs at or below v.
func cdfFrac(xs []float64, v float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x <= v {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}
