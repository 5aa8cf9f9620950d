package sim

import "testing"

func TestWorldRoundTrip(t *testing.T) {
	w := NewWorld(Tiny, 11)
	if len(w.EdgePrefixes()) == 0 {
		t.Fatal("no edge prefixes")
	}
	vps := w.VantagePoints(8)
	if len(vps) != 8 {
		t.Fatalf("got %d vps", len(vps))
	}
	c := w.Measure(CampaignOptions{Day: 0, VPs: vps, Targets: w.EdgePrefixes()[:40]})
	if len(c.VPTraces) != 8*40 {
		t.Fatalf("got %d traces", len(c.VPTraces))
	}
	a := c.BuildAtlas()
	if a.NumClusters == 0 || len(a.Links) == 0 {
		t.Fatal("empty atlas")
	}
	if a.Day != 0 {
		t.Fatalf("atlas day %d", a.Day)
	}
}

func TestWorldTruthHelpers(t *testing.T) {
	w := NewWorld(Tiny, 12)
	eps := w.EdgePrefixes()
	src, dst := eps[0], eps[10]
	rtt, ok := w.TrueRTT(0, src, dst)
	if !ok || rtt <= 0 {
		t.Fatalf("TrueRTT = %v, %v", rtt, ok)
	}
	if loss, ok := w.TrueLoss(0, src, dst); !ok || loss < 0 || loss > 1 {
		t.Fatalf("TrueLoss = %v, %v", loss, ok)
	}
	path, ok := w.TrueASPath(0, src, dst)
	if !ok || len(path) == 0 {
		t.Fatalf("TrueASPath = %v, %v", path, ok)
	}
	if path[0] != w.Top.PrefixOrigin[src] || path[len(path)-1] != w.Top.PrefixOrigin[dst] {
		t.Fatalf("AS path endpoints wrong: %v", path)
	}
}

func TestClientAgents(t *testing.T) {
	w := NewWorld(Tiny, 13)
	vps := w.VantagePoints(4)
	agents := w.EdgePrefixes()[50:54]
	c := w.Measure(CampaignOptions{
		Day: 0, VPs: vps, Targets: w.EdgePrefixes()[:30],
		ClientVPs: agents,
	})
	if len(c.ClientTraces) != len(agents)*perClient { // no agent is among the targets
		t.Fatalf("%d client traces, want %d", len(c.ClientTraces), len(agents)*perClient)
	}
	for _, tr := range c.ClientTraces {
		found := false
		for _, a := range agents {
			if tr.Src == a {
				found = true
			}
		}
		if !found {
			t.Fatalf("client trace from non-agent %v", tr.Src)
		}
	}
}
