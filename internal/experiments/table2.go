package experiments

import (
	"fmt"
	"slices"
	"strings"

	"inano/internal/atlas"
	"inano/internal/netsim"
	"inano/internal/trace"
)

// Table2Row is one dataset row of Table 2.
type Table2Row struct {
	Name         string
	Entries      int
	Bytes        int // compressed bytes in the full atlas
	DeltaEntries int
	DeltaBytes   int
}

// Table2Result reproduces Table 2: per-dataset entry counts and compressed
// sizes of the atlas, and the size of the day-over-day delta.
type Table2Result struct {
	Rows            []Table2Row
	AtlasBytes      int
	DeltaBytes      int
	AtlasEntries    int
	DeltaEntriesSum int
}

// Table2AtlasSize builds the atlases of two consecutive days and measures
// both the full artifact and the delta (§6.1.1, §6.2.3).
func Table2AtlasSize(l *Lab) Table2Result {
	d0 := l.Day(0)
	d1 := l.Day(1)
	delta := atlas.Diff(d0.Atlas, d1.Atlas)

	var res Table2Result
	sizes := d1.Atlas.SectionSizes()
	// Delta per-dataset attribution: links, loss, tuples change daily;
	// the rest ship monthly (zero daily delta), per the paper.
	deltaEntries := map[string]int{
		"Inter-cluster links with latencies": len(delta.UpLinks) + len(delta.DelLinks),
		"Link loss rates":                    len(delta.UpLoss) + len(delta.DelLoss),
		"AS three-tuples":                    len(delta.AddTuples) + len(delta.DelTuples),
	}
	for _, s := range sizes {
		row := Table2Row{Name: s.Name, Entries: s.Entries, Bytes: s.Compressed}
		row.DeltaEntries = deltaEntries[s.Name]
		res.Rows = append(res.Rows, row)
		res.AtlasEntries += s.Entries
	}
	res.AtlasBytes = d1.Atlas.EncodedSize()
	res.DeltaBytes = delta.EncodedSize()
	res.DeltaEntriesSum = delta.Entries()
	return res
}

// Render formats the result like Table 2.
func (r Table2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: atlas dataset sizes (entries, compressed bytes) and daily delta\n")
	fmt.Fprintf(&b, "%-38s %10s %10s %10s\n", "Dataset", "Entries", "Bytes", "ΔEntries")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-38s %10d %10d %10d\n", row.Name, row.Entries, row.Bytes, row.DeltaEntries)
	}
	fmt.Fprintf(&b, "%-38s %10d %10d\n", "Total (full atlas, one gzip stream)", r.AtlasEntries, r.AtlasBytes)
	fmt.Fprintf(&b, "%-38s %10d %10d\n", "Daily delta", r.DeltaEntriesSum, r.DeltaBytes)
	fmt.Fprintf(&b, "delta/atlas size ratio: %.2f (paper: 1.34MB/6.61MB = 0.20)\n",
		float64(r.DeltaBytes)/float64(r.AtlasBytes))
	return b.String()
}

// ScalingPoint is one batch step of the vantage-point scaling study.
type ScalingPoint struct {
	Agents int
	Links  int
	Tuples int
}

// ScalingResult reproduces §6.1.2: how the atlas grows as end-host vantage
// points join, with the paper's linear extrapolation to full edge coverage.
type ScalingResult struct {
	Base               ScalingPoint // PlanetLab-only atlas
	Points             []ScalingPoint
	LinksPerAgent      float64
	TuplesPerAgent     float64
	ExtrapolatedLinks  int // if every edge prefix ran an agent
	ExtrapolatedTuples int
	EdgePrefixes       int
}

// VantagePointScaling adds batches of DIMES-like end-host agents and
// measures atlas growth (§6.1.2).
func VantagePointScaling(l *Lab, batches, agentsPerBatch, targetsPerAgent int) ScalingResult {
	dd := l.Day(0)
	// The baseline rebuilds with zero new agents so every point in the
	// series shares one pipeline configuration.
	base := rebuildWithClients(dd, nil)
	res := ScalingResult{
		Base:         ScalingPoint{Agents: 0, Links: len(base.Links), Tuples: len(base.Tuples)},
		EdgePrefixes: len(l.W.EdgePrefixes()),
	}
	// Agents are edge prefixes not already used as vantage points.
	isVP := make(map[netsim.Prefix]bool, len(l.VPs))
	for _, vp := range l.VPs {
		isVP[vp] = true
	}
	var agents []netsim.Prefix
	for _, p := range l.W.EdgePrefixes() {
		if !isVP[p] {
			agents = append(agents, p)
		}
	}
	var client []trace.Traceroute
	used := 0
	for b := 0; b < batches && used+agentsPerBatch <= len(agents); b++ {
		for a := 0; a < agentsPerBatch; a++ {
			src := agents[used]
			used++
			for k := 0; k < targetsPerAgent; k++ {
				dst := l.Targets[(int(src)*31+k*13)%len(l.Targets)]
				if dst == src {
					continue
				}
				client = append(client, dd.Meter.Traceroute(src, dst))
			}
		}
		a := rebuildWithClients(dd, client)
		res.Points = append(res.Points, ScalingPoint{
			Agents: used,
			Links:  len(a.Links),
			Tuples: len(a.Tuples),
		})
	}
	if n := len(res.Points); n > 0 && used > 0 {
		last := res.Points[n-1]
		res.LinksPerAgent = float64(last.Links-res.Base.Links) / float64(last.Agents)
		res.TuplesPerAgent = float64(last.Tuples-res.Base.Tuples) / float64(last.Agents)
		res.ExtrapolatedLinks = res.Base.Links + int(res.LinksPerAgent*float64(res.EdgePrefixes))
		res.ExtrapolatedTuples = res.Base.Tuples + int(res.TuplesPerAgent*float64(res.EdgePrefixes))
	}
	return res
}

// rebuildWithClients rebuilds the day's atlas with extra end-host agent
// traceroutes added to the FROM_SRC plane (alongside the validation
// sources' own FROM_SRC traces), clustering from scratch.
func rebuildWithClients(dd *DayData, client []trace.Traceroute) *atlas.Atlas {
	c := *dd.campaign
	c.ClientTraces = append(slices.Clip(dd.ClientTraces), client...)
	return c.BuildAtlasOver(nil)
}

// Render formats the scaling study.
func (r ScalingResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§6.1.2: atlas scaling with end-host vantage points\n")
	fmt.Fprintf(&b, "%8s %10s %10s\n", "agents", "links", "3-tuples")
	fmt.Fprintf(&b, "%8d %10d %10d   (vantage points only)\n", 0, r.Base.Links, r.Base.Tuples)
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%8d %10d %10d\n", p.Agents, p.Links, p.Tuples)
	}
	fmt.Fprintf(&b, "growth: %.2f links/agent, %.2f tuples/agent\n", r.LinksPerAgent, r.TuplesPerAgent)
	fmt.Fprintf(&b, "linear extrapolation to all %d edge prefixes: %d links (%.1fx), %d tuples (%.1fx)\n",
		r.EdgePrefixes, r.ExtrapolatedLinks, float64(r.ExtrapolatedLinks)/float64(max(1, r.Base.Links)),
		r.ExtrapolatedTuples, float64(r.ExtrapolatedTuples)/float64(max(1, r.Base.Tuples)))
	fmt.Fprintf(&b, "(paper: 309K->2.2M links ~8x, 1.05M->2.7M tuples ~3x)\n")
	return b.String()
}
