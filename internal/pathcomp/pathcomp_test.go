package pathcomp

import (
	"testing"

	"inano/internal/atlas"
	"inano/internal/bgpsim"
	"inano/internal/cluster"
	"inano/internal/netsim"
	"inano/internal/trace"
)

type fixture struct {
	top     *netsim.Topology
	la      *atlas.Atlas
	pa      *Atlas
	vps     []netsim.Prefix
	targets []netsim.Prefix
}

func build(t testing.TB, seed int64) *fixture {
	t.Helper()
	top := netsim.Generate(netsim.TestConfig(seed))
	sim := bgpsim.New(top)
	day := sim.Day(0)
	m := trace.NewMeter(day)
	vps := trace.SelectVantagePoints(top, 12)
	targets := top.EdgePrefixes
	if len(targets) > 80 {
		targets = targets[:80]
	}
	c := trace.RunCampaign(m, vps, targets)
	la := atlas.Build(atlas.BuildInput{
		Top: top, Day: day, Meter: m,
		VPTraces:   c.Traceroutes,
		BGPFeeds:   atlas.DefaultFeeds(top, 5),
		ClusterCfg: cluster.DefaultConfig(),
	})
	// Rebuild the clustering exactly as the builder saw it so the path
	// atlas shares cluster IDs with the link atlas.
	var ips []netsim.IP
	for _, tr := range c.Traceroutes {
		for _, h := range tr.Hops {
			if h.IP != 0 {
				ips = append(ips, h.IP)
			}
		}
	}
	cl := cluster.Cluster(top, ips, cluster.DefaultConfig())
	pa := BuildFromTraces(c.Traceroutes, cl.ClusterOf, la)
	return &fixture{top: top, la: la, pa: pa, vps: vps, targets: targets}
}

func TestBuildFromTracesIndexes(t *testing.T) {
	f := build(t, 91)
	if len(f.pa.Paths) == 0 {
		t.Fatal("no stored paths")
	}
	if len(f.pa.Sources()) == 0 {
		t.Fatal("no sources")
	}
	for i := range f.pa.Paths {
		sp := &f.pa.Paths[i]
		if len(sp.Clusters) != len(sp.LatTo) || len(sp.Clusters) != len(sp.AS) {
			t.Fatalf("path %d shape mismatch", i)
		}
		for j := 1; j < len(sp.LatTo); j++ {
			if sp.LossTo[j] < sp.LossTo[j-1]-1e-9 {
				t.Fatalf("path %d loss not monotone", i)
			}
		}
	}
}

func TestDirectMeasurementPreferred(t *testing.T) {
	f := build(t, 92)
	// Pick a stored path and predict its own (src,dst): the prediction
	// must reproduce the measured path exactly.
	sp := &f.pa.Paths[0]
	p := f.pa.Predict(sp.Src, sp.Dst, Options{})
	if !p.Found {
		t.Fatal("direct path not found")
	}
	if len(p.Clusters) != len(sp.Clusters) {
		t.Fatalf("direct prediction %v != measured %v", p.Clusters, sp.Clusters)
	}
	for i := range p.Clusters {
		if p.Clusters[i] != sp.Clusters[i] {
			t.Fatalf("cluster %d differs", i)
		}
	}
}

func TestComposedPredictionSplices(t *testing.T) {
	f := build(t, 93)
	// Cross-predict: source VP to a destination it measured, but through
	// the composition path (drop direct paths by predicting from a VP to
	// a target not in its own traces: emulate by src=one VP's prefix and
	// dst chosen so no stored (src,dst) exists).
	found := 0
	for _, src := range f.vps {
		for _, dst := range f.targets {
			if src == dst {
				continue
			}
			direct := false
			for _, pi := range f.pa.bySrc[src] {
				if f.pa.Paths[pi].Dst == dst {
					direct = true
					break
				}
			}
			if direct {
				continue
			}
			p := f.pa.Predict(src, dst, Options{})
			if p.Found {
				found++
				// The composed path must start where one of the
				// source's measured paths starts.
				okStart := false
				for _, pi := range f.pa.bySrc[src] {
					if f.pa.Paths[pi].Clusters[0] == p.Clusters[0] {
						okStart = true
						break
					}
				}
				if !okStart {
					t.Fatalf("composed path starts at cluster %d, not a measured first hop of %v", p.Clusters[0], src)
				}
				if p.LatencyMS <= 0 {
					t.Fatalf("composed path has latency %v", p.LatencyMS)
				}
				if p.LossRate < 0 || p.LossRate > 1 {
					t.Fatalf("composed loss %v", p.LossRate)
				}
			}
		}
	}
	if found == 0 {
		t.Skip("no non-direct pairs in this small world")
	}
}

func TestImprovedNeverWorseOnTuples(t *testing.T) {
	f := build(t, 94)
	// Improved predictions must satisfy the splice tuple check by
	// construction; verify on the resulting AS paths.
	for i, src := range f.vps {
		dst := f.targets[(i*7+3)%len(f.targets)]
		if src == dst {
			continue
		}
		p := f.pa.Predict(src, dst, Options{Improved: true})
		if !p.Found {
			continue
		}
		if len(p.ASPath) == 0 {
			t.Fatal("prediction without AS path")
		}
	}
}

func TestQueryBothDirections(t *testing.T) {
	f := build(t, 95)
	n := 0
	for i, src := range f.vps {
		dst := f.vps[(i+1)%len(f.vps)]
		if src == dst {
			continue
		}
		rtt, loss, ok := f.pa.Query(src, dst, Options{})
		if !ok {
			continue
		}
		n++
		if rtt <= 0 || loss < 0 || loss > 1 {
			t.Fatalf("bad query result rtt=%v loss=%v", rtt, loss)
		}
	}
	if n == 0 {
		t.Skip("no VP-to-VP compositions available")
	}
}

func TestSizeBytesGrowsWithPaths(t *testing.T) {
	f := build(t, 96)
	if f.pa.SizeBytes() <= 0 {
		t.Fatal("zero path atlas size")
	}
	// The paper's core claim: the path atlas dwarfs the link atlas.
	if f.pa.SizeBytes() < f.la.EncodedSize() {
		t.Logf("note: path atlas (%d B) smaller than link atlas (%d B) at toy scale", f.pa.SizeBytes(), f.la.EncodedSize())
	}
}

func TestPredictUnknownPrefix(t *testing.T) {
	f := build(t, 97)
	if f.pa.Predict(netsim.Prefix(0xFFFFFF), f.targets[0], Options{}).Found {
		t.Fatal("prediction from unknown source")
	}
}
