// Package sim is the public facade over the synthetic-Internet substrate:
// it generates deterministic worlds (topology + policy routing + churn),
// runs measurement campaigns, and builds atlases — everything a user needs
// to exercise the inano library without real traceroute datasets, and the
// data source for the evaluation harness.
package sim

import (
	"inano/internal/atlas"
	"inano/internal/bgpsim"
	"inano/internal/cluster"
	"inano/internal/netsim"
	"inano/internal/trace"
)

// Scale selects a world size.
type Scale int

const (
	// Tiny worlds (tens of ASes) generate in milliseconds; good for
	// tests and quickstarts.
	Tiny Scale = iota
	// Medium worlds (hundreds of ASes) run the examples.
	Medium
	// Eval worlds (~2000 ASes) back the paper-reproduction harness.
	Eval
)

// World is a generated Internet with ground-truth routing.
type World struct {
	Top *netsim.Topology
	Sim *bgpsim.Sim
}

// NewWorld generates a world at the given scale, fully determined by seed.
func NewWorld(scale Scale, seed int64) *World {
	var cfg netsim.Config
	switch scale {
	case Tiny:
		cfg = netsim.TestConfig(seed)
	case Eval:
		cfg = netsim.EvalConfig(seed)
	default:
		cfg = netsim.DefaultConfig(seed)
	}
	top := netsim.Generate(cfg)
	return &World{Top: top, Sim: bgpsim.New(top)}
}

// EdgePrefixes returns the probe-able edge prefixes of the world.
func (w *World) EdgePrefixes() []netsim.Prefix { return w.Top.EdgePrefixes }

// VantagePoints picks n well-spread vantage point prefixes.
func (w *World) VantagePoints(n int) []netsim.Prefix {
	return trace.SelectVantagePoints(w.Top, n)
}

// TrueRTT returns the ground-truth RTT between two prefixes on a day.
func (w *World) TrueRTT(day int, src, dst netsim.Prefix) (float64, bool) {
	return w.Sim.Day(day).RTT(src, dst)
}

// TrueLoss returns the ground-truth one-way loss between two prefixes.
func (w *World) TrueLoss(day int, src, dst netsim.Prefix) (float64, bool) {
	return w.Sim.Day(day).FwdLoss(src, dst)
}

// TrueASPath returns the ground-truth AS path between two prefixes.
func (w *World) TrueASPath(day int, src, dst netsim.Prefix) ([]netsim.ASN, bool) {
	return w.Sim.Day(day).ASPath(w.Top.PrefixOrigin[src], dst)
}

// CampaignOptions tunes a measurement campaign.
type CampaignOptions struct {
	Day       int
	VPs       []netsim.Prefix
	Targets   []netsim.Prefix
	ClientVPs []netsim.Prefix // end-host agents contributing FROM_SRC traces
}

// perClient is how many targets each client agent traces.
const perClient = 50

// Campaign is one day's measurements plus the artifacts needed to build an
// atlas from them.
type Campaign struct {
	world        *World
	day          *bgpsim.Day
	meter        *trace.Meter
	VPTraces     []trace.Traceroute
	ClientTraces []trace.Traceroute
}

// Measure runs a measurement campaign against the world.
func (w *World) Measure(o CampaignOptions) *Campaign {
	day := w.Sim.Day(o.Day)
	m := trace.NewMeter(day)
	c := &Campaign{world: w, day: day, meter: m}
	vpc := trace.RunCampaign(m, o.VPs, o.Targets)
	c.VPTraces = vpc.Traceroutes
	for i, src := range o.ClientVPs {
		for k := range perClient {
			dst := o.Targets[(i*131+k*17)%len(o.Targets)]
			if dst == src {
				continue
			}
			c.ClientTraces = append(c.ClientTraces, m.Traceroute(src, dst))
		}
	}
	return c
}

// BuildAtlas processes the campaign into an iNano atlas, clustering the
// interfaces it observed from scratch. Atlases of different days built
// this way number their clusters independently; a day-over-day delta
// between them is meaningless (see BuildAtlasOver).
func (c *Campaign) BuildAtlas() *atlas.Atlas { return c.BuildAtlasOver(nil) }

// Clusters clusters the interfaces the campaign observed and renumbers the
// result to agree with prev — the previous day's clustering, nil on the
// first day of a chain — wherever the two share interfaces
// (cluster.Stabilize): the production server's persistent cluster
// registry. Chain it from day 0 and build each day with BuildAtlasOver, and
// atlas.Diff between consecutive days yields a delta a client can follow.
func (c *Campaign) Clusters(prev *cluster.Clustering) *cluster.Clustering {
	var ifaces []netsim.IP
	for _, trs := range [][]trace.Traceroute{c.VPTraces, c.ClientTraces} {
		for _, tr := range trs {
			for _, h := range tr.Hops {
				if h.IP != 0 {
					ifaces = append(ifaces, h.IP)
				}
			}
		}
	}
	return cluster.Stabilize(cluster.Cluster(c.world.Top, ifaces, cluster.DefaultConfig()), prev)
}

// BuildAtlasOver processes the campaign into an atlas over the clustering
// cl (from Clusters); nil clusters from scratch.
func (c *Campaign) BuildAtlasOver(cl *cluster.Clustering) *atlas.Atlas {
	return atlas.Build(atlas.BuildInput{
		Top:          c.world.Top,
		Day:          c.day,
		Meter:        c.meter,
		VPTraces:     c.VPTraces,
		ClientTraces: c.ClientTraces,
		BGPFeeds:     atlas.DefaultFeeds(c.world.Top, 8),
		ClusterCfg:   cluster.DefaultConfig(),
		Clusters:     cl,
	})
}

// Meter exposes the campaign's measurement harness for ad-hoc probes (used
// by examples to emulate on-demand client measurements).
func (c *Campaign) Meter() *trace.Meter { return c.meter }
