package vivaldi

import (
	"math"
	"testing"

	"inano/internal/bgpsim"
	"inano/internal/netsim"
	"inano/internal/trace"
)

func TestTrainConvergesOnSyntheticWorld(t *testing.T) {
	top := netsim.Generate(netsim.TestConfig(81))
	sim := bgpsim.New(top)
	day := sim.Day(0)
	hosts := trace.SelectVantagePoints(top, 30)
	measure := func(a, b netsim.Prefix) (float64, bool) { return day.RTT(a, b) }
	s := Train(hosts, measure, DefaultParams(81))

	// Relative estimation error should be small for most pairs; Vivaldi
	// cannot be perfect (triangle-inequality violations exist).
	var errs []float64
	for i, a := range hosts {
		for _, b := range hosts[i+1:] {
			truth, ok := day.RTT(a, b)
			if !ok || truth <= 0 {
				continue
			}
			est, ok := s.Estimate(a, b)
			if !ok {
				t.Fatalf("no estimate for trained pair %v %v", a, b)
			}
			errs = append(errs, math.Abs(est-truth)/truth)
		}
	}
	if len(errs) == 0 {
		t.Fatal("no pairs evaluated")
	}
	med := median(errs)
	if med > 0.45 {
		t.Errorf("median relative error %.2f; Vivaldi failed to converge", med)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}

func TestEstimateSymmetric(t *testing.T) {
	// Coordinates always predict symmetric latencies — the fundamental
	// limitation of embeddings the paper calls out (§8.1).
	top := netsim.Generate(netsim.TestConfig(82))
	sim := bgpsim.New(top)
	day := sim.Day(0)
	hosts := trace.SelectVantagePoints(top, 12)
	measure := func(a, b netsim.Prefix) (float64, bool) { return day.RTT(a, b) }
	s := Train(hosts, measure, DefaultParams(82))
	for i, a := range hosts {
		for _, b := range hosts[i+1:] {
			ab, _ := s.Estimate(a, b)
			ba, _ := s.Estimate(b, a)
			if ab != ba {
				t.Fatalf("asymmetric coordinate estimate %v vs %v", ab, ba)
			}
		}
	}
}

func TestEstimateUntrainedHost(t *testing.T) {
	s := Train(nil, func(a, b netsim.Prefix) (float64, bool) { return 0, false }, DefaultParams(1))
	if _, ok := s.Estimate(1, 2); ok {
		t.Fatal("estimate for untrained hosts")
	}
}

func TestHeightNeverNegative(t *testing.T) {
	top := netsim.Generate(netsim.TestConfig(83))
	sim := bgpsim.New(top)
	day := sim.Day(0)
	hosts := trace.SelectVantagePoints(top, 15)
	measure := func(a, b netsim.Prefix) (float64, bool) { return day.RTT(a, b) }
	s := Train(hosts, measure, DefaultParams(83))
	for h, c := range s.Coords {
		if c.H < 0 {
			t.Fatalf("host %v has negative height %v", h, c.H)
		}
	}
}

func TestGeoSelectorPicksNearby(t *testing.T) {
	top := netsim.Generate(netsim.TestConfig(84))
	g := NewGeoSelector(top, 100)
	client := top.EdgePrefixes[0]
	// Candidate set: the client's own prefix plus a far one; the client's
	// own location must win with a fine grid.
	var far netsim.Prefix
	ch := top.PoPs[top.PrefixHome[client]].Loc
	bestD := 0.0
	for _, p := range top.EdgePrefixes {
		d := top.PoPs[top.PrefixHome[p]].Loc.Dist(ch)
		if d > bestD {
			far, bestD = p, d
		}
	}
	got, ok := g.Best(client, []netsim.Prefix{far, client})
	if !ok || got != client {
		t.Fatalf("geo selector picked %v, want client-colocated %v", got, client)
	}
}

func TestGeoSelectorEmptyReplicas(t *testing.T) {
	top := netsim.Generate(netsim.TestConfig(85))
	g := NewGeoSelector(top, 0)
	if _, ok := g.Best(top.EdgePrefixes[0], nil); ok {
		t.Fatal("selection from empty replica set")
	}
}
