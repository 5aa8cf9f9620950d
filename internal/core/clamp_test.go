package core

import (
	"math"
	"testing"

	"inano/internal/atlas"
	"inano/internal/cluster"
	"inano/internal/netsim"
)

// pickFoundPair returns a prefix pair the engine predicts in both
// directions, so clamp tests exercise a real served answer.
func pickFoundPair(t *testing.T, w *world, e *Engine) (src, dst netsim.Prefix) {
	t.Helper()
	for i, s := range w.targets {
		for _, d := range w.targets[i+1:] {
			if s == d {
				continue
			}
			if info := e.Query(s, d); info.Found {
				return s, d
			}
		}
	}
	t.Fatal("no predictable prefix pair in world")
	return 0, 0
}

// TestNegativeCorrectionClampStacked is the regression test for stacked
// negative residual corrections: a swarm-shipped GlobalAdjustMS and a
// client-local AdjustMS that are both strongly negative must never drive
// a served latency to zero or below — the floor holds on one-way
// predictions, on the corrected forward leg of a query, and on the RTT.
func TestNegativeCorrectionClampStacked(t *testing.T) {
	w := buildWorld(t, 73)
	e := New(w.a, INanoOptions())
	src, dst := pickFoundPair(t, w, e)

	base := e.PredictForward(src, dst)
	// Corrections larger in sum than the whole uncorrected path latency.
	w.a.GlobalAdjustMS[dst] = -float32(base.LatencyMS)
	w.a.AdjustMS[dst] = -float32(base.LatencyMS)
	e = New(w.a, INanoOptions()) // corrections bake in at compile time

	p := e.PredictForward(src, dst)
	if !p.Found {
		t.Fatal("prediction lost after corrections")
	}
	if p.LatencyMS != minServedLatencyMS {
		t.Fatalf("one-way latency %v under stacked negative corrections, want the %v floor",
			p.LatencyMS, minServedLatencyMS)
	}

	info := e.Query(src, dst)
	if !info.Found {
		t.Fatal("query lost after corrections")
	}
	if info.Fwd.LatencyMS != minServedLatencyMS {
		t.Fatalf("query forward latency %v, want the %v floor", info.Fwd.LatencyMS, minServedLatencyMS)
	}
	if info.RTTMS <= 0 {
		t.Fatalf("RTT %v went non-positive under stacked negative corrections", info.RTTMS)
	}
	// The reverse leg carries no correction for dst, so the RTT is the
	// floored forward leg plus the genuine reverse latency.
	if want := minServedLatencyMS + info.Rev.LatencyMS; info.RTTMS != want {
		t.Fatalf("RTT %v, want %v", info.RTTMS, want)
	}
}

// TestNegativeCorrectionClampSingleTerm covers each correction term
// alone, at the boundary where the correction exactly cancels the path.
func TestNegativeCorrectionClampSingleTerm(t *testing.T) {
	w := buildWorld(t, 74)
	e := New(w.a, INanoOptions())
	src, dst := pickFoundPair(t, w, e)
	base := e.PredictForward(src, dst)

	for _, tc := range []struct {
		name          string
		global, local float32
	}{
		{"global only", -float32(base.LatencyMS), 0},
		{"local only", 0, -float32(base.LatencyMS)},
		{"exact cancel split", -float32(base.LatencyMS) / 2, -float32(base.LatencyMS) / 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			delete(w.a.GlobalAdjustMS, dst)
			delete(w.a.AdjustMS, dst)
			if tc.global != 0 {
				w.a.GlobalAdjustMS[dst] = tc.global
			}
			if tc.local != 0 {
				w.a.AdjustMS[dst] = tc.local
			}
			e := New(w.a, INanoOptions())
			p := e.PredictForward(src, dst)
			if !p.Found {
				t.Fatal("prediction lost")
			}
			if p.LatencyMS < minServedLatencyMS {
				t.Fatalf("latency %v below the %v floor", p.LatencyMS, minServedLatencyMS)
			}
		})
	}
}

// TestLatUnitsExtremes pins the cost-unit conversion against float
// extremes: huge and non-finite latencies must saturate at the packed
// metric's intra-AS mask instead of wrapping the uint64 conversion
// (float32-max * 100 overflows int64, which is implementation-defined in
// the conversion the old code used).
func TestLatUnitsExtremes(t *testing.T) {
	cases := []struct {
		name string
		ms   float32
		want uint64
	}{
		{"zero", 0, 0},
		{"negative", -5, 0},
		{"negative inf", float32(math.Inf(-1)), 0},
		{"one ms", 1, 100},
		{"sub-unit rounds", 0.004, 0},
		{"rounds up", 0.006, 1},
		{"max float32", math.MaxFloat32, costEMask},
		{"positive inf", float32(math.Inf(1)), costEMask},
		{"nan", float32(math.NaN()), costEMask},
		{"just below saturation", float32((costEMask - 256) / 100), uint64(float64(float32((costEMask-256)/100)))*100 + 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := latUnits(tc.ms)
			if tc.name == "just below saturation" {
				// float32 rounding makes the exact value fuzzy; the
				// property that matters is: in range, not saturated, no wrap.
				if got == 0 || got > costEMask {
					t.Fatalf("latUnits(%v) = %d, wrapped or saturated", tc.ms, got)
				}
				return
			}
			if got != tc.want {
				t.Fatalf("latUnits(%v) = %d, want %d", tc.ms, got, tc.want)
			}
		})
	}
	// Saturation must also survive packCost without bleeding into hops.
	if c := packCost(3, latUnits(math.MaxFloat32)); costHops(c) != 3 {
		t.Fatalf("saturated latency corrupted the hop component: hops=%d", costHops(c))
	}
}

// TestExtremeLatencyQueryDoesNotWrap runs a real query over a link with
// float32-max latency: the engine must still prefer the sane route and
// never report a negative or wrapped cost.
func TestExtremeLatencyQueryDoesNotWrap(t *testing.T) {
	w := buildWorld(t, 73)
	e := New(w.a, INanoOptions())
	src, dst := pickFoundPair(t, w, e)

	// Blow up one on-path link to float32 max.
	p := e.PredictForward(src, dst)
	if len(p.Clusters) < 2 {
		t.Skip("single-cluster path; nothing to corrupt")
	}
	li := w.a.LinkAt(p.Clusters[0], p.Clusters[1])
	if li < 0 {
		t.Fatal("path link missing from atlas")
	}
	w.a.Links[li].LatencyMS = math.MaxFloat32
	e = New(w.a, INanoOptions())

	q := e.PredictForward(src, dst)
	if q.Found && q.LatencyMS < 0 {
		t.Fatalf("latency went negative (%v): cost wrapped", q.LatencyMS)
	}
}

// TestHopCountSaturates pins the H side of the packed cost: past 2^20-1
// accounted hops the component holds instead of shifting off the top of the
// word, and a crossing taken at saturation never lowers the cost — the
// build's queue is monotone and must not be handed a cost below its last
// pop.
func TestHopCountSaturates(t *testing.T) {
	top := packCost(costHMax, 0)
	if costHops(top) != costHMax {
		t.Fatalf("costHMax does not round-trip: hops=%d", costHops(top))
	}
	for _, h := range []uint32{costHMax + 1, costHMax + 256, 1 << 21, math.MaxUint32} {
		if c := packCost(h, 9); c != top|9 {
			t.Fatalf("packCost(%d, 9) = %#x, want H saturated at %#x", h, c, top|9)
		}
	}
	for _, w := range []uint64{packCost(costHMax, 7), packCost(costHMax-100, 7), packCost(costHMax-256, costEMask)} {
		c, pend := relaxCost(w, math.MaxUint8, false, false, 1)
		if c < w {
			t.Fatalf("crossing from %#x lowered the cost to %#x", w, c)
		}
		if pend != 0 {
			t.Fatalf("crossing left %d hops pending", pend)
		}
	}
}

// TestLateExitChainStaysOrdered runs a real build over 300 consecutive
// late-exit crossings — the pending counter saturates at 255 a sixth of the
// way in — closed by one normal crossing that folds it. Costs must never
// fall along the chain, every cluster must be reached, and a cluster with
// no link at all must read as unreached from the retained tree alone.
func TestLateExitChainStaysOrdered(t *testing.T) {
	const chain = 300
	a := atlas.New()
	a.NumClusters = chain + 3 // 0 = destination ... chain+1 = far end, chain+2 isolated
	for c := 0; c < a.NumClusters; c++ {
		a.ClusterAS = append(a.ClusterAS, netsim.ASN(c+1))
	}
	for c := 1; c <= chain+1; c++ {
		a.Links = append(a.Links, atlas.Link{
			From: cluster.ClusterID(c), To: cluster.ClusterID(c - 1), LatencyMS: 2, Planes: atlas.PlaneToDst,
		})
		if c <= chain {
			a.LateExit[netsim.ASPairKey(netsim.ASN(c+1), netsim.ASN(c))] = true
		}
	}
	e := New(a, Options{ThreeTuple: true})
	sc := newRunScratch(e.numNodes())
	tr := e.fullTree(sc, treeKey(0, 1))
	next, _ := e.unpack(tr)

	for c := 1; c <= chain+1; c++ {
		id, prev := e.nodeID(cluster.ClusterID(c), planeToDst, stateUp), e.nodeID(cluster.ClusterID(c-1), planeToDst, stateUp)
		if !tr.has(id) || next[id] != prev {
			t.Fatalf("cluster %d: settled=%v next=%d, want next %d", c, tr.has(id), next[id], prev)
		}
		if sc.labels[id].cost < sc.labels[prev].cost {
			t.Fatalf("cluster %d: cost %#x below its successor's %#x", c, sc.labels[id].cost, sc.labels[prev].cost)
		}
		wantPend := uint8(min(c, math.MaxUint8))
		if c == chain+1 {
			wantPend = 0 // the closing normal crossing folded them
		}
		if sc.labels[id].pend != wantPend {
			t.Fatalf("cluster %d: pend %d, want %d", c, sc.labels[id].pend, wantPend)
		}
	}
	far := sc.labels[e.nodeID(chain+1, planeToDst, stateUp)].cost
	if costHops(far) != math.MaxUint8+1 || far&costEMask != 0 {
		t.Fatalf("far end cost %#x, want %d hops and a reset exit cost", far, math.MaxUint8+1)
	}

	var p Prediction
	e.pathFromInto(tr, chain+1, &p)
	if !p.Found || len(p.Clusters) != chain+2 {
		t.Fatalf("far end: Found=%v over %d clusters, want the whole %d-cluster chain", p.Found, len(p.Clusters), chain+2)
	}
	p.reset()
	e.pathFromInto(tr, chain+2, &p)
	if p.Found || len(p.Clusters) != 0 {
		t.Fatalf("isolated cluster: Found=%v clusters=%v, want no prediction", p.Found, p.Clusters)
	}
}

// TestWalkEndsOnCyclicTree hands the walk a tree no build produces — two
// clusters whose hop words name the links to each other — and requires an
// empty prediction, not a hang.
func TestWalkEndsOnCyclicTree(t *testing.T) {
	a := atlas.New()
	a.NumClusters, a.ClusterAS = 2, []netsim.ASN{1, 2}
	a.Links = []atlas.Link{
		{From: 0, To: 1, LatencyMS: 1, Planes: atlas.PlaneToDst},
		{From: 1, To: 0, LatencyMS: 1, Planes: atlas.PlaneToDst},
	}
	e := New(a, Options{ThreeTuple: true})
	// Edges are bucketed by arrival: edge 0 arrives at cluster 0, edge 1 at 1.
	p := Prediction{Clusters: make([]cluster.ClusterID, 0, 4)}
	tr := e.newTree(0)
	tr.hop[0], tr.hop[1] = 1<<2, 0<<2
	tr.settled[0].Store(3)
	e.pathFromInto(tr, 0, &p)
	if p.Found || len(p.Clusters) != 0 || p.LatencyMS != 0 {
		t.Fatalf("cyclic tree: %+v, want no prediction", p)
	}
}
