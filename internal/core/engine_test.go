package core

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"inano/internal/atlas"
	"inano/internal/bgpsim"
	"inano/internal/cluster"
	"inano/internal/netsim"
	"inano/internal/trace"
)

// world bundles everything an engine test needs.
type world struct {
	top *netsim.Topology
	sim *bgpsim.Sim
	a   *atlas.Atlas
	// vps used to build the atlas; validation uses held-out prefixes.
	vps     []netsim.Prefix
	targets []netsim.Prefix
}

func buildWorld(t testing.TB, seed int64) *world {
	t.Helper()
	top := netsim.Generate(netsim.TestConfig(seed))
	sim := bgpsim.New(top, bgpsim.DefaultConfig())
	day := sim.Day(0)
	m := trace.NewMeter(day, trace.DefaultOptions())
	vps := trace.SelectVantagePoints(top, 14)
	targets := top.EdgePrefixes
	if len(targets) > 100 {
		targets = targets[:100]
	}
	c := trace.RunCampaign(m, vps, targets)
	a := atlas.Build(atlas.BuildInput{
		Top:        top,
		Day:        day,
		Meter:      m,
		VPTraces:   c.Traceroutes,
		BGPFeeds:   atlas.DefaultFeeds(top, 5),
		ClusterCfg: cluster.DefaultConfig(),
	})
	return &world{top: top, sim: sim, a: a, vps: vps, targets: targets}
}

// treeKeys returns the distinct prediction trees that answer the world's
// targets, in target order.
func (w *world) treeKeys() []uint64 {
	var keys []uint64
	seen := map[uint64]bool{}
	for _, p := range w.targets {
		if cl, ok := w.a.PrefixCluster[p]; ok && !seen[treeKey(cl, w.a.PrefixAS[p])] {
			seen[treeKey(cl, w.a.PrefixAS[p])] = true
			keys = append(keys, treeKey(cl, w.a.PrefixAS[p]))
		}
	}
	return keys
}

func allOptionVariants() map[string]Options {
	return map[string]Options{
		"GRAPH":       GraphOptions(),
		"GRAPH+asym":  {Asymmetry: true},
		"+3tuple":     {Asymmetry: true, ThreeTuple: true},
		"+prefs":      {Asymmetry: true, ThreeTuple: true, Preferences: true},
		"iNano(full)": INanoOptions(),
	}
}

func TestEnginePredictsMostPairs(t *testing.T) {
	w := buildWorld(t, 61)
	for name, opts := range allOptionVariants() {
		e := New(w.a, opts)
		found, total := 0, 0
		for i, src := range w.vps {
			dst := w.targets[(i*13+7)%len(w.targets)]
			if src == dst {
				continue
			}
			total++
			if e.PredictForward(src, dst).Found {
				found++
			}
		}
		if total == 0 {
			t.Fatal("no pairs")
		}
		if frac := float64(found) / float64(total); frac < 0.6 {
			t.Errorf("%s: only %.0f%% of pairs predicted", name, frac*100)
		}
	}
}

func TestPredictionEndsAtDestinationCluster(t *testing.T) {
	w := buildWorld(t, 62)
	e := New(w.a, INanoOptions())
	for i, src := range w.vps {
		dst := w.targets[(i*7+3)%len(w.targets)]
		if src == dst {
			continue
		}
		p := e.PredictForward(src, dst)
		if !p.Found {
			continue
		}
		if got := p.Clusters[len(p.Clusters)-1]; got != w.a.PrefixCluster[dst] {
			t.Fatalf("path ends at cluster %d, want %d", got, w.a.PrefixCluster[dst])
		}
		if got := p.Clusters[0]; got != w.a.PrefixCluster[src] {
			t.Fatalf("path starts at cluster %d, want %d", got, w.a.PrefixCluster[src])
		}
	}
}

// Every consecutive cluster pair on a predicted path must be a link present
// in the atlas: predictions compose observed links only.
func TestPredictionUsesOnlyAtlasLinks(t *testing.T) {
	w := buildWorld(t, 63)
	for name, opts := range allOptionVariants() {
		e := New(w.a, opts)
		for i, src := range w.vps {
			dst := w.targets[(i*11+5)%len(w.targets)]
			if src == dst {
				continue
			}
			p := e.PredictForward(src, dst)
			if !p.Found {
				continue
			}
			for j := 0; j+1 < len(p.Clusters); j++ {
				if w.a.LinkAt(p.Clusters[j], p.Clusters[j+1]) < 0 {
					t.Fatalf("%s: hop %d->%d not an atlas link", name, p.Clusters[j], p.Clusters[j+1])
				}
			}
		}
	}
}

// GRAPH-mode predictions must be valley-free with respect to the inferred
// relationships (the construction guarantees it).
func TestGraphPredictionsValleyFree(t *testing.T) {
	w := buildWorld(t, 64)
	e := New(w.a, GraphOptions())
	checked := 0
	for i, src := range w.vps {
		dst := w.targets[(i*3+1)%len(w.targets)]
		if src == dst {
			continue
		}
		p := e.PredictForward(src, dst)
		if !p.Found || len(p.ASPath) < 3 {
			continue
		}
		descended := false
		for j := 0; j+1 < len(p.ASPath); j++ {
			r := w.a.RelOf(p.ASPath[j], p.ASPath[j+1])
			switch r {
			case netsim.RelProvider:
				if descended {
					t.Fatalf("valley in GRAPH prediction %v at %d", p.ASPath, j)
				}
			case netsim.RelPeer, netsim.RelNone:
				if descended {
					t.Fatalf("peer-after-descent in GRAPH prediction %v at %d", p.ASPath, j)
				}
				descended = true
			case netsim.RelCustomer:
				descended = true
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no multi-AS GRAPH predictions to check")
	}
}

// Full-iNano predictions must satisfy the 3-tuple export check they were
// built with.
func TestINanoPredictionsRespectTuples(t *testing.T) {
	w := buildWorld(t, 65)
	e := New(w.a, INanoOptions())
	checked := 0
	for i, src := range w.vps {
		dst := w.targets[(i*5+2)%len(w.targets)]
		if src == dst {
			continue
		}
		p := e.PredictForward(src, dst)
		if !p.Found {
			continue
		}
		as := p.ASPath
		for j := 0; j+2 < len(as); j++ {
			if int(w.a.ASDegree[as[j+1]]) <= 5 {
				continue
			}
			if as[j] == as[j+1] || as[j+1] == as[j+2] || as[j] == as[j+2] {
				continue
			}
			if !w.a.HasTuple(as[j], as[j+1], as[j+2]) {
				t.Fatalf("prediction %v violates 3-tuple check at %d", as, j)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Skip("no triple with enforceable middle AS in this world")
	}
}

func TestProviderCheckEnforced(t *testing.T) {
	w := buildWorld(t, 66)
	e := New(w.a, INanoOptions())
	for i, src := range w.vps {
		dst := w.targets[(i*9+4)%len(w.targets)]
		if src == dst {
			continue
		}
		p := e.PredictForward(src, dst)
		if !p.Found || len(p.ASPath) < 2 {
			continue
		}
		origin := w.a.PrefixAS[dst]
		provs := w.a.Providers[origin]
		if len(provs) == 0 {
			continue
		}
		// Find the AS entering the origin.
		for j := 0; j+1 < len(p.ASPath); j++ {
			if p.ASPath[j+1] == origin && p.ASPath[j] != origin {
				if !w.a.IsProvider(origin, p.ASPath[j]) {
					t.Fatalf("path %v enters origin %d via non-provider %d", p.ASPath, origin, p.ASPath[j])
				}
			}
		}
	}
}

func TestQueryComposesBothDirections(t *testing.T) {
	w := buildWorld(t, 67)
	e := New(w.a, INanoOptions())
	n := 0
	for i, src := range w.vps {
		dst := w.targets[(i*7+1)%len(w.targets)]
		if src == dst {
			continue
		}
		info := e.Query(src, dst)
		if !info.Found {
			continue
		}
		n++
		if info.RTTMS != info.Fwd.LatencyMS+info.Rev.LatencyMS {
			t.Fatalf("RTT %v != fwd %v + rev %v", info.RTTMS, info.Fwd.LatencyMS, info.Rev.LatencyMS)
		}
		if info.LossRate < 0 || info.LossRate > 1 {
			t.Fatalf("loss %v out of range", info.LossRate)
		}
		if info.LossRate+1e-12 < info.Fwd.LossRate || info.LossRate+1e-12 < info.Rev.LossRate {
			t.Fatalf("round-trip loss %v below one-way losses %v/%v", info.LossRate, info.Fwd.LossRate, info.Rev.LossRate)
		}
	}
	if n == 0 {
		t.Fatal("no successful queries")
	}
}

func TestQueryDeterministicAndCacheConsistent(t *testing.T) {
	w := buildWorld(t, 68)
	e1 := New(w.a, INanoOptions())
	e2 := New(w.a, INanoOptions())
	src, dst := w.vps[0], w.targets[3]
	a := e1.Query(src, dst)
	// e1 now has a cached tree; a second identical query must agree, as
	// must a fresh engine.
	b := e1.Query(src, dst)
	c := e2.Query(src, dst)
	if a.RTTMS != b.RTTMS || a.RTTMS != c.RTTMS || a.Found != c.Found {
		t.Fatalf("nondeterministic query: %v / %v / %v", a.RTTMS, b.RTTMS, c.RTTMS)
	}
}

func TestEngineConcurrentQueries(t *testing.T) {
	w := buildWorld(t, 69)
	e := New(w.a, INanoOptions())
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- true }()
			for i := 0; i < 20; i++ {
				src := w.vps[(g+i)%len(w.vps)]
				dst := w.targets[(g*13+i*7)%len(w.targets)]
				if src != dst {
					e.Query(src, dst)
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

func TestUnknownPrefixNotFound(t *testing.T) {
	w := buildWorld(t, 70)
	e := New(w.a, INanoOptions())
	bogus := netsim.Prefix(0xFFFFFF)
	if e.PredictForward(bogus, w.targets[0]).Found {
		t.Fatal("prediction for unknown source prefix")
	}
	if e.PredictForward(w.vps[0], bogus).Found {
		t.Fatal("prediction for unknown destination prefix")
	}
	if e.Query(bogus, bogus).Found {
		t.Fatal("query for unknown prefixes")
	}
}

func TestASPathAccuracyOrdering(t *testing.T) {
	// The headline claim of Fig. 5: each refinement helps, and full iNano
	// beats GRAPH decisively. At test-world scale, individual deltas are
	// noisy, so assert only the endpoints of the ordering.
	w := buildWorld(t, 71)
	day := w.sim.Day(0)
	score := func(opts Options) float64 {
		e := New(w.a, opts)
		match, total := 0, 0
		for i, src := range w.vps {
			for k := 0; k < 12; k++ {
				dst := w.targets[(i*17+k*3)%len(w.targets)]
				if src == dst {
					continue
				}
				truth, ok := day.ASPath(w.top.PrefixOrigin[src], dst)
				if !ok {
					continue
				}
				p := e.PredictForward(src, dst)
				if !p.Found {
					total++
					continue
				}
				total++
				if equalAS(truth, p.ASPath) {
					match++
				}
			}
		}
		if total == 0 {
			t.Fatal("no validation pairs")
		}
		return float64(match) / float64(total)
	}
	graph := score(GraphOptions())
	inano := score(INanoOptions())
	t.Logf("GRAPH exact-path accuracy %.2f, iNano %.2f", graph, inano)
	if inano <= graph {
		t.Errorf("iNano (%.2f) must beat GRAPH (%.2f) on AS path accuracy", inano, graph)
	}
	if inano < 0.35 {
		t.Errorf("iNano accuracy %.2f too low; paper achieves 0.70 at full scale", inano)
	}
}

func equalAS(a, b []netsim.ASN) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestConcurrentColdBuilds has eight goroutines cold-build disjoint
// destinations on one fresh engine. Every tree must equal the one a second
// engine builds alone: the builds share nothing but the pooled scratch and
// the per-edge run tables, which they fill concurrently on first use (the
// race detector checks the how, this test the what).
func TestConcurrentColdBuilds(t *testing.T) {
	w := buildWorld(t, 69)
	e, serial := New(w.a, INanoOptions()), New(w.a, INanoOptions())
	dests := w.treeKeys()
	const workers = 8
	if len(dests) < 4*workers {
		t.Fatalf("world has %d distinct destinations, want >= %d", len(dests), 4*workers)
	}
	got := make([]*tree, len(dests))
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(dests); i += workers {
				got[i], _ = e.trees.getOrCompute(context.Background(), dests[i], e, nil)
			}
		}()
	}
	wg.Wait()
	if st := e.CacheStats(); st.Builds != uint64(len(dests)) {
		t.Fatalf("%d builds for %d disjoint destinations", st.Builds, len(dests))
	}
	for i, k := range dests {
		want := serial.fullTree(newRunScratch(serial.numNodes()), k)
		if !slices.Equal(want.hop, got[i].hop) || want.key != got[i].key {
			t.Fatalf("tree %#x: concurrently built tree differs from the serial one", k)
		}
	}
}

// TestEdgeToMatchesBuckets checks Engine.edgeTo against the CSR bounds it
// was filled from, on random link tables with empty buckets at either end
// and in between, and that an engine that adopts a cache adopts the array.
func TestEdgeToMatchesBuckets(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := atlas.New()
		a.NumClusters = 1 + rng.Intn(40)
		for c := 0; c < a.NumClusters; c++ {
			a.ClusterAS = append(a.ClusterAS, netsim.ASN(1+c/3))
		}
		for i, n := 0, rng.Intn(4*a.NumClusters); i < n; i++ {
			// The product skews To low, leaving whole runs of clusters no link arrives at.
			to := rng.Intn(a.NumClusters) * rng.Intn(a.NumClusters) / a.NumClusters
			a.Links = append(a.Links, atlas.Link{
				From: cluster.ClusterID(rng.Intn(a.NumClusters)), To: cluster.ClusterID(to), LatencyMS: 1, Planes: atlas.PlaneToDst,
			})
		}
		e := New(a, INanoOptions())
		f := e.f
		if len(e.edgeTo) != f.NumEdges() {
			t.Fatalf("seed %d: edgeTo has %d entries for %d edges", seed, len(e.edgeTo), f.NumEdges())
		}
		for ei, w := range e.edgeTo {
			if uint32(ei) < f.EdgeStart[w] || uint32(ei) >= f.EdgeStart[w+1] {
				t.Fatalf("seed %d: edge %d arrives at cluster %d, whose bucket is [%d, %d)", seed, ei, w, f.EdgeStart[w], f.EdgeStart[w+1])
			}
		}
		if next := NewWithCache(f, e.opts, e); len(e.edgeTo) > 0 && &next.edgeTo[0] != &e.edgeTo[0] {
			t.Fatalf("seed %d: NewWithCache filled its own edgeTo", seed)
		}
	}
}

// Along any prediction tree, following next toward the destination must
// never increase the packed cost, and the destination's cost is zero —
// the Dijkstra invariant that guarantees loop-free reconstruction.
func TestTreeCostMonotone(t *testing.T) {
	w := buildWorld(t, 72)
	for name, opts := range allOptionVariants() {
		e := New(w.a, opts)
		sc := newRunScratch(e.numNodes())
		for k := 0; k < 5; k++ {
			dst := w.targets[k*7%len(w.targets)]
			dstCl, ok := w.a.PrefixCluster[dst]
			if !ok {
				continue
			}
			tr := e.fullTree(sc, treeKey(dstCl, w.a.PrefixAS[dst]))
			cost := func(id int32) uint64 { return sc.labels[id].cost }
			start := e.nodeID(dstCl, planeToDst, stateDown)
			if cost(start) != 0 {
				t.Fatalf("%s: destination cost %d != 0", name, cost(start))
			}
			next, _ := e.unpack(tr)
			for i := range tr.hop {
				id := int32(i)
				if tr.has(id) != (cost(id) != infCost) {
					t.Fatalf("%s: node %d settled=%v at cost %d", name, id, tr.has(id), cost(id))
				}
				if !tr.has(id) {
					continue
				}
				nxt := next[id]
				if nxt < 0 {
					if id != start {
						t.Fatalf("%s: reached node %d has no next and is not the destination", name, id)
					}
					continue
				}
				if cost(nxt) > cost(id) {
					t.Fatalf("%s: cost increases toward destination: %d -> %d", name, cost(id), cost(nxt))
				}
			}
		}
	}
}

func TestCostPacking(t *testing.T) {
	c := packCost(3, 12345)
	if costHops(c) != 3 || c&costEMask != 12345 {
		t.Fatalf("pack/unpack broken: %x", c)
	}
	// Saturation instead of overflow into the hop field.
	c = packCost(1, costEMask+100)
	if costHops(c) != 1 || c&costEMask != costEMask {
		t.Fatalf("saturation broken: %x", c)
	}
	// Ordering: hops dominate exit cost.
	if packCost(2, 0) <= packCost(1, costEMask) {
		t.Fatal("hop ordering broken")
	}
}

// TestEngineDerivesEdgeFacts holds what an engine derives of its edges'
// ASes, which the flat form no longer carries, to the map atlas: a GRAPH
// engine's relationship for each edge is Flat.RelOf of the edge's end ASes
// and the maps' own, and an iNano engine's degree for each cluster is its
// AS's in the maps. An engine that adopts a cache adopts both.
func TestEngineDerivesEdgeFacts(t *testing.T) {
	w := buildWorld(t, 61)
	a := w.a
	graph, inano := New(a, GraphOptions()), New(a, INanoOptions())
	f := graph.f
	if graph.clusterDeg != nil || inano.edgeRel != nil {
		t.Fatal("an engine derived what its options never read")
	}
	if len(graph.edgeRel) != f.NumEdges() || len(inano.clusterDeg) != int(f.NumClusters) {
		t.Fatalf("%d relationships for %d edges, %d degrees for %d clusters",
			len(graph.edgeRel), f.NumEdges(), len(inano.clusterDeg), f.NumClusters)
	}
	gated, rels := 0, 0
	for c := range int(f.NumClusters) {
		ta := a.ClusterAS[c]
		if inano.clusterDeg[c] != a.ASDegree[ta] {
			t.Fatalf("cluster %d (AS %d): degree %d, want %d", c, ta, inano.clusterDeg[c], a.ASDegree[ta])
		}
		if inano.clusterDeg[c] > atlas.DegreeThreshold {
			gated++
		}
		for ei := f.EdgeStart[c]; ei < f.EdgeStart[c+1]; ei++ {
			fa := a.ClusterAS[f.EdgeFrom[ei]]
			if got := graph.edgeRel[ei]; got != f.RelOf(fa, ta) || got != a.RelOf(fa, ta) {
				t.Fatalf("edge %d (AS %d -> %d): relationship %v, Flat.RelOf %v, maps %v", ei, fa, ta, got, f.RelOf(fa, ta), a.RelOf(fa, ta))
			}
			if graph.edgeRel[ei] != netsim.RelNone {
				rels++
			}
		}
	}
	if gated == 0 || gated == int(f.NumClusters) || rels == 0 {
		t.Fatalf("%d of %d clusters gated, %d edges with a relationship: the world exercises neither side", gated, f.NumClusters, rels)
	}
	if next := NewWithCache(f, graph.opts, graph); &next.edgeRel[0] != &graph.edgeRel[0] {
		t.Fatal("NewWithCache derived its own relationships")
	}
	if next := NewWithCache(f, inano.opts, inano); &next.clusterDeg[0] != &inano.clusterDeg[0] {
		t.Fatal("NewWithCache derived its own degrees")
	}
}
