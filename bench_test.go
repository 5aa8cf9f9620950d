// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (run cmd/inano-eval for the full-scale numbers; these
// run the same generators at a benchmark-friendly scale), plus
// micro-benchmarks for the core library operations.
package inano_test

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"

	inano "inano"
	"inano/internal/atlas"
	"inano/internal/experiments"
	"inano/sim"
)

var (
	labOnce sync.Once
	lab     *experiments.Lab
)

// benchLab shares one world across benchmarks; building it is setup, not
// measured work.
func benchLab() *experiments.Lab {
	labOnce.Do(func() {
		lab = experiments.NewLab(experiments.QuickConfig(42))
		// Pre-build both days so per-benchmark timings exclude setup.
		lab.Day(0)
		lab.Day(1)
	})
	return lab
}

func BenchmarkTable2_AtlasSize(b *testing.B) {
	l := benchLab()
	for i := 0; i < b.N; i++ {
		r := experiments.Table2AtlasSize(l)
		if r.AtlasBytes == 0 {
			b.Fatal("empty atlas")
		}
	}
}

func BenchmarkSec612_VantagePointScaling(b *testing.B) {
	l := benchLab()
	for i := 0; i < b.N; i++ {
		r := experiments.VantagePointScaling(l, 2, 6, 8)
		if len(r.Points) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkFig4_PathStationarity(b *testing.B) {
	l := benchLab()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4PathStationarity(l)
		if r.Total == 0 {
			b.Fatal("no paths")
		}
	}
}

func BenchmarkSec622_LossStationarity(b *testing.B) {
	l := benchLab()
	for i := 0; i < b.N; i++ {
		experiments.LossStationarity(l, 300)
	}
}

func BenchmarkFig5_ASPathAccuracy(b *testing.B) {
	l := benchLab()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5Accuracy(l)
		if r.Pairs == 0 {
			b.Fatal("no validation pairs")
		}
	}
}

func BenchmarkFig6_LatencyError(b *testing.B) {
	l := benchLab()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig6LatencyError(l)
		if r.Pairs == 0 {
			b.Fatal("no pairs")
		}
	}
}

func BenchmarkFig7_ClosestRanking(b *testing.B) {
	l := benchLab()
	for i := 0; i < b.N; i++ {
		experiments.Fig7ClosestRanking(l)
	}
}

func BenchmarkFig8_LossError(b *testing.B) {
	l := benchLab()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig8LossError(l)
		if r.Pairs == 0 {
			b.Fatal("no pairs")
		}
	}
}

func BenchmarkFig9a_CDN30KB(b *testing.B) {
	l := benchLab()
	for i := 0; i < b.N; i++ {
		experiments.Fig9CDN(l, 30_000, 10, 5)
	}
}

func BenchmarkFig9b_CDN1500KB(b *testing.B) {
	l := benchLab()
	for i := 0; i < b.N; i++ {
		experiments.Fig9CDN(l, 1_500_000, 10, 5)
	}
}

func BenchmarkFig10_VoIPRelay(b *testing.B) {
	l := benchLab()
	for i := 0; i < b.N; i++ {
		experiments.Fig10VoIP(l, 40)
	}
}

func BenchmarkFig11_DetourFailures(b *testing.B) {
	l := benchLab()
	for i := 0; i < b.N; i++ {
		experiments.Fig11Detour(l, 3, 5)
	}
}

// --- Micro-benchmarks: the library's hot paths. ---

// queryPair answers one pair through Client.Query, the library's
// one-line door.
func queryPair(c *inano.Client, src, dst inano.Prefix) inano.PathInfo {
	return c.Query(src.HostIP(), dst.HostIP())
}

func benchClient(b *testing.B) (*inano.Client, *experiments.Lab) {
	l := benchLab()
	return inano.FromAtlas(l.Day(0).Atlas), l
}

// BenchmarkQuery_ColdDestinations forces a fresh Dijkstra per query.
func BenchmarkQuery_ColdDestinations(b *testing.B) {
	c, l := benchClient(b)
	dsts := l.Targets
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		queryPair(c, l.VPs[i%len(l.VPs)], dsts[i%len(dsts)])
	}
}

// BenchmarkQuery_HotDestination measures the cached-tree fast path (batch
// workloads group by destination).
func BenchmarkQuery_HotDestination(b *testing.B) {
	c, l := benchClient(b)
	dst := l.Targets[3]
	queryPair(c, l.VPs[0], dst) // warm the tree cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		queryPair(c, l.VPs[i%len(l.VPs)], dst)
	}
}

func BenchmarkAtlasEncode(b *testing.B) {
	l := benchLab()
	a := l.Day(0).Atlas
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := a.Encode(&buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

func BenchmarkAtlasDecode(b *testing.B) {
	l := benchLab()
	var buf bytes.Buffer
	if err := l.Day(0).Atlas.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := atlas.Decode(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoad is start-up as a client pays it, on a world of the
// ledger's size: encoded bytes in memory to a client that has answered its
// first query. The ledger's load_ms is the number; this is where to take
// the profile behind it.
func BenchmarkLoad(b *testing.B) {
	w := sim.NewWorld(sim.Medium, 42)
	vps := w.VantagePoints(16)
	c := w.Measure(sim.CampaignOptions{VPs: vps, Targets: w.EdgePrefixes()})
	var buf bytes.Buffer
	if err := c.BuildAtlas().Encode(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := inano.Load(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		if !queryPair(c, vps[0], vps[1]).Found {
			b.Fatal("no answer")
		}
	}
}

func BenchmarkDeltaDiffApply(b *testing.B) {
	l := benchLab()
	d0, d1 := l.Day(0).Atlas, l.Day(1).Atlas
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delta := atlas.Diff(d0, d1)
		cp := d0.Clone()
		if err := cp.Apply(delta); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAtlasBuild measures the full server-side pipeline (clustering,
// link annotation, inference) over one campaign.
func BenchmarkAtlasBuild(b *testing.B) {
	w := sim.NewWorld(sim.Tiny, 7)
	vps := w.VantagePoints(10)
	targets := w.EdgePrefixes()[:60]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := w.Measure(sim.CampaignOptions{Day: 0, VPs: vps, Targets: targets})
		a := c.BuildAtlas()
		if a.NumClusters == 0 {
			b.Fatal("empty atlas")
		}
	}
}

// BenchmarkQuery_Concurrent measures aggregate query throughput with one
// goroutine per core hammering a shared client — the serving shape of a
// relay or tracker answering many peers at once. Thanks to the sharded
// tree cache, throughput should scale with cores instead of serializing
// on a cache lock.
func BenchmarkQuery_Concurrent(b *testing.B) {
	c, l := benchClient(b)
	// Warm the trees so the parallel section measures lookup throughput.
	for i := 0; i < len(l.Targets); i++ {
		queryPair(c, l.VPs[i%len(l.VPs)], l.Targets[i])
	}
	var ctr atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(ctr.Add(1000003)) // distinct stride per goroutine
		for pb.Next() {
			queryPair(c, l.VPs[i%len(l.VPs)], l.Targets[i%len(l.Targets)])
			i++
		}
	})
}

// sharedDstPairs builds a batch of nPairs queries spread over kDst
// destinations — the CDN/VoIP shape where many sources rank few replicas.
func sharedDstPairs(l *experiments.Lab, nPairs, kDst int) []inano.PairReq {
	pairs := make([]inano.PairReq, nPairs)
	for i := range pairs {
		pairs[i] = inano.PairReq{Src: l.VPs[i%len(l.VPs)], Dst: l.Targets[i%kDst]}
	}
	return pairs
}

// BenchmarkQueryBatch_SharedDestination answers 256 queries over 4
// destinations with one QueryReqs per iteration, cold trees each time:
// the batch builds each destination tree once (fanned across cores) and
// reuses it for every source. Compare against
// BenchmarkQueryBatch_SequentialBaseline, the same workload as N
// sequential Query calls.
func BenchmarkQueryBatch_SharedDestination(b *testing.B) {
	l := benchLab()
	pairs := sharedDstPairs(l, 256, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := inano.FromAtlas(l.Day(0).Atlas) // fresh engine: trees are cold
		b.StartTimer()
		if _, _, err := c.Snapshot().QueryReqs(context.Background(), pairs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryBatch_SequentialBaseline is the loop QueryReqs replaces.
func BenchmarkQueryBatch_SequentialBaseline(b *testing.B) {
	l := benchLab()
	pairs := sharedDstPairs(l, 256, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := inano.FromAtlas(l.Day(0).Atlas)
		b.StartTimer()
		for _, p := range pairs {
			queryPair(c, p.Src, p.Dst)
		}
	}
}

// BenchmarkQueryBatch_ManyDestinations stresses the worker-pool fan-out:
// one source querying many distinct cold destinations, so every group is
// an independent Dijkstra that can run on its own core.
func BenchmarkQueryBatch_ManyDestinations(b *testing.B) {
	l := benchLab()
	k := len(l.Targets)
	if k > 32 {
		k = 32
	}
	reqs := make([]inano.PairReq, k)
	for i := range reqs {
		reqs[i] = inano.PairReq{Src: l.VPs[0], Dst: l.Targets[i]}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := inano.FromAtlas(l.Day(0).Atlas)
		b.StartTimer()
		if _, _, err := c.Snapshot().QueryReqs(context.Background(), reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation bench: per-destination tree reuse (DESIGN.md decision 5). The
// cold benchmark above quantifies the other side.
func BenchmarkAblation_BatchByDestination(b *testing.B) {
	c, l := benchClient(b)
	pairs := make([][2]inano.Prefix, 0, 64)
	for i := 0; i < 64; i++ {
		pairs = append(pairs, [2]inano.Prefix{l.VPs[i%len(l.VPs)], l.Targets[i%4]})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			queryPair(c, p[0], p[1])
		}
	}
}
