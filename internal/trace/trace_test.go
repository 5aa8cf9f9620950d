package trace

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"inano/internal/bgpsim"
	"inano/internal/netsim"
)

func testMeter(t *testing.T, seed int64, day int) (*Meter, *netsim.Topology) {
	t.Helper()
	top := netsim.Generate(netsim.TestConfig(seed))
	sim := bgpsim.New(top)
	return NewMeter(sim.Day(day)), top
}

// TestTracerouteDeterministic: a traceroute is a function of (world, day,
// src, dst) — not of what the Meter has remembered (its reverse-latency
// memo, the pooled noise generators), of which goroutine asks, or of
// whether another is asking at the same moment.
func TestTracerouteDeterministic(t *testing.T) {
	m, top := testMeter(t, 1, 0)
	eps := top.EdgePrefixes
	pairs := make([][2]netsim.Prefix, 0, 40)
	for i := 0; i < 40; i++ {
		pairs = append(pairs, [2]netsim.Prefix{eps[i%4], eps[(i*7+13)%len(eps)]})
	}
	run := func(m *Meter) []Traceroute {
		out := make([]Traceroute, len(pairs))
		for i, p := range pairs {
			out[i] = m.Traceroute(p[0], p[1])
		}
		return out
	}
	cold := run(m)
	if warm := run(m); !reflect.DeepEqual(cold, warm) {
		t.Fatalf("the same Meter answered differently the second time")
	}
	fresh, _ := testMeter(t, 1, 0)
	got := make([][]Traceroute, 2)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = run(fresh)
		}()
	}
	wg.Wait()
	for g := range got {
		if !reflect.DeepEqual(cold, got[g]) {
			t.Errorf("goroutine %d of two sharing a fresh Meter answered differently from a Meter used alone", g)
		}
	}
}

// TestTracerouteAllocBudget trips when a measurement goes back to building
// its own random source (5.4 KB each on math/rand's): a warm traceroute
// allocates its hops, its ground-truth PoPs and the forward path's
// scratch; a link measurement allocates nothing.
func TestTracerouteAllocBudget(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("under the race detector sync.Pool drops a quarter of what is put in it")
			}
		}
	}
	m, top := testMeter(t, 1, 1)
	src, dst := top.EdgePrefixes[0], top.EdgePrefixes[10]
	m.Traceroute(src, dst)
	var before, after runtime.MemStats
	const runs = 200
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		m.Traceroute(src, dst)
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun >= 2048 {
		t.Errorf("a warm Traceroute allocates %d B, budget is under 2048", perRun)
	}
	l := netsim.LinkID(0)
	if n := testing.AllocsPerRun(runs, func() {
		m.MeasureLinkLatency(l)
		m.CoarseLinkLatency(l)
		m.MeasureLinkLoss(l, top.Links[l].A, 100)
	}); n != 0 {
		t.Errorf("a link's latency and loss measurements allocate %v times, want 0", n)
	}
}

func TestTracerouteHopsConsistent(t *testing.T) {
	m, top := testMeter(t, 2, 0)
	reached := 0
	for i := 0; i < 60; i++ {
		src := top.EdgePrefixes[i%len(top.EdgePrefixes)]
		dst := top.EdgePrefixes[(i*7+13)%len(top.EdgePrefixes)]
		if src == dst {
			continue
		}
		tr := m.Traceroute(src, dst)
		if len(tr.Hops) == 0 {
			t.Fatalf("empty traceroute %v -> %v", src, dst)
		}
		var lastRTT float64
		for hi, h := range tr.Hops {
			if h.IP == 0 {
				continue
			}
			if h.RTTMS <= 0 {
				t.Fatalf("hop %d responsive but RTT %v", hi, h.RTTMS)
			}
			_ = lastRTT // RTTs need not be monotone (asymmetric reverse paths)
			lastRTT = h.RTTMS
			// Every revealed interface except the destination host must
			// belong to a router in the true PoP at that position.
			if hi < len(tr.TruePoPs) {
				got := top.RouterPoP(h.IP)
				if got != tr.TruePoPs[hi] {
					t.Fatalf("hop %d interface %v in PoP %d, want %d", hi, h.IP, got, tr.TruePoPs[hi])
				}
			}
		}
		if tr.Reached {
			reached++
			last := tr.Hops[len(tr.Hops)-1]
			if last.IP != dst.HostIP() {
				t.Fatalf("reached but last hop %v != host %v", last.IP, dst.HostIP())
			}
		}
	}
	if reached == 0 {
		t.Fatal("no traceroute reached its destination")
	}
}

func TestTracerouteHasUnresponsiveHops(t *testing.T) {
	m, top := testMeter(t, 3, 0)
	stars := 0
	for i := 0; i < 80; i++ {
		src := top.EdgePrefixes[i%len(top.EdgePrefixes)]
		dst := top.EdgePrefixes[(i*5+1)%len(top.EdgePrefixes)]
		if src == dst {
			continue
		}
		for _, h := range m.Traceroute(src, dst).Hops {
			if h.IP == 0 {
				stars++
			}
		}
	}
	if stars == 0 {
		t.Error("no unresponsive hops in 80 traceroutes; dark-router model inert")
	}
}

func TestMeasureLinkLatencyUnbiased(t *testing.T) {
	m, top := testMeter(t, 5, 0)
	for lid := range top.Links[:50] {
		truth := top.Links[lid].LatencyMS
		got := m.MeasureLinkLatency(netsim.LinkID(lid))
		if got < truth*0.97 || got > truth*1.03 {
			t.Fatalf("link %d latency measurement %v outside 3%% of %v", lid, got, truth)
		}
	}
}

func TestRunCampaignShape(t *testing.T) {
	m, top := testMeter(t, 6, 0)
	vps := SelectVantagePoints(top, 8)
	if len(vps) != 8 {
		t.Fatalf("got %d VPs, want 8", len(vps))
	}
	targets := top.EdgePrefixes[:20]
	c := RunCampaign(m, vps, targets)
	if len(c.Traceroutes) != len(vps)*len(targets) {
		t.Fatalf("got %d traceroutes, want %d", len(c.Traceroutes), len(vps)*len(targets))
	}
	for i, tr := range c.Traceroutes {
		wantSrc := vps[i/len(targets)]
		wantDst := targets[i%len(targets)]
		if tr.Src != wantSrc || tr.Dst != wantDst {
			t.Fatalf("traceroute %d is %v->%v, want %v->%v", i, tr.Src, tr.Dst, wantSrc, wantDst)
		}
	}
}

func TestSelectVantagePointsDistinctASes(t *testing.T) {
	top := netsim.Generate(netsim.TestConfig(7))
	vps := SelectVantagePoints(top, 10)
	seen := map[netsim.Prefix]bool{}
	for _, p := range vps {
		if seen[p] {
			t.Fatalf("duplicate vantage point %v", p)
		}
		seen[p] = true
	}
}
