package inano

import (
	"bytes"
	"context"
	"testing"
	"time"

	"inano/internal/atlas"
	"inano/internal/netsim"
	"inano/internal/swarm"
	"inano/sim"
)

// queryPair answers one pair on c's current snapshot; the background
// context never ends, so there is no error to look at.
func queryPair(c *Client, src, dst Prefix) PathInfo {
	info, _ := c.Snapshot().Query(context.Background(), src, dst)
	return info
}

type fixture struct {
	w       *sim.World
	a       *atlas.Atlas
	vps     []Prefix
	targets []Prefix
}

func buildFixture(t testing.TB, seed int64, day int) *fixture {
	t.Helper()
	w := sim.NewWorld(sim.Tiny, seed)
	vps := w.VantagePoints(12)
	targets := w.EdgePrefixes()
	if len(targets) > 80 {
		targets = targets[:80]
	}
	// The paper's campaign probes ~90% of edge prefixes, including the
	// vantage points' own; reverse-path prediction toward a prefix needs
	// it to have been a target.
	targets = append([]Prefix(nil), targets...)
	seen := make(map[Prefix]bool, len(targets))
	for _, p := range targets {
		seen[p] = true
	}
	for _, vp := range vps {
		if !seen[vp] {
			targets = append(targets, vp)
		}
	}
	c := w.Measure(sim.CampaignOptions{Day: day, VPs: vps, Targets: targets})
	return &fixture{w: w, a: c.BuildAtlas(), vps: vps, targets: targets}
}

func TestLoadRoundTrip(t *testing.T) {
	f := buildFixture(t, 101, 0)
	var buf bytes.Buffer
	if err := f.a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	client, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if client.Snapshot().Day() != 0 {
		t.Fatalf("day = %d", client.Snapshot().Day())
	}
	info := queryPair(client, f.vps[0], f.targets[5])
	direct := queryPair(FromAtlas(f.a), f.vps[0], f.targets[5])
	if info.Found != direct.Found {
		t.Fatalf("decoded atlas answers differently: %+v vs %+v", info, direct)
	}
	// Latencies round-trip through the codec's 0.01 ms quantization.
	if d := info.RTTMS - direct.RTTMS; d > 1 || d < -1 {
		t.Fatalf("decoded atlas RTT %v far from direct %v", info.RTTMS, direct.RTTMS)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage atlas loaded")
	}
}

func TestQueryByIP(t *testing.T) {
	f := buildFixture(t, 102, 0)
	c := FromAtlas(f.a)
	src, dst := f.vps[0], f.targets[3]
	byIP := c.Query(src.HostIP(), dst.HostIP())
	byPfx := queryPair(c, src, dst)
	if byIP.Found != byPfx.Found || byIP.RTTMS != byPfx.RTTMS {
		t.Fatal("IP and prefix queries disagree")
	}
}

func TestApplyDelta(t *testing.T) {
	f0 := buildFixture(t, 104, 0)
	f1 := buildFixture(t, 104, 1)
	delta := atlas.Diff(f0.a, f1.a)
	var buf bytes.Buffer
	if err := delta.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	c := FromAtlas(f0.a)
	if err := c.ApplyDelta(&buf); err != nil {
		t.Fatal(err)
	}
	if c.Snapshot().Day() != 1 {
		t.Fatalf("day after delta = %d", c.Snapshot().Day())
	}
	// Applying the same delta again must fail (wrong base day).
	var buf2 bytes.Buffer
	if err := delta.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyDelta(&buf2); err == nil {
		t.Fatal("delta applied twice")
	}
}

func TestFetchAtlasViaSwarm(t *testing.T) {
	f := buildFixture(t, 105, 0)
	var buf bytes.Buffer
	if err := f.a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	m := swarm.NewManifest("atlas-day0", data, 16<<10)
	tr, err := swarm.StartTracker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	seed, err := swarm.StartSeed(tr.Addr(), m, data)
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	c, err := FetchAtlas(ctx, tr.Addr(), m)
	if err != nil {
		t.Fatal(err)
	}
	// The fetched client must agree with a directly constructed one, up
	// to the codec's 0.01 ms latency quantization.
	direct := FromAtlas(f.a)
	agreed := 0
	for i, src := range f.vps {
		dst := f.targets[(i*7+1)%len(f.targets)]
		a := queryPair(c, src, dst)
		b := queryPair(direct, src, dst)
		if a.Found != b.Found {
			t.Fatalf("swarm-fetched atlas disagrees on %v->%v: found %v vs %v", src, dst, a.Found, b.Found)
		}
		if a.Found {
			agreed++
			if diff := a.RTTMS - b.RTTMS; diff > 1 || diff < -1 {
				t.Fatalf("RTT differs beyond quantization on %v->%v: %v vs %v", src, dst, a.RTTMS, b.RTTMS)
			}
		}
	}
	if agreed == 0 {
		t.Fatal("no predictable pair to compare")
	}
}

func TestAddTraceroutesImprovesSourceCoverage(t *testing.T) {
	f := buildFixture(t, 106, 0)
	c := FromAtlas(f.a)
	// A brand-new host not in the atlas measures a few traceroutes; its
	// prefix must become queryable.
	var newSrc Prefix
	for _, p := range f.w.EdgePrefixes() {
		if _, known := f.a.PrefixCluster[p]; !known {
			newSrc = p
			break
		}
	}
	if newSrc == 0 {
		t.Skip("every edge prefix already covered in this world")
	}
	day := f.w.Sim.Day(0)
	meter := f.w.Measure(sim.CampaignOptions{Day: 0, VPs: nil, Targets: f.targets[:1]}).Meter()
	var trs []LocalTraceroute
	for k := 0; k < 10; k++ {
		dst := f.targets[(k*7+1)%len(f.targets)]
		if dst == newSrc {
			continue
		}
		mt := meter.Traceroute(newSrc, dst)
		lt := LocalTraceroute{Src: newSrc, Dst: dst}
		for _, h := range mt.Hops {
			lt.Hops = append(lt.Hops, TracerouteHop{IP: h.IP, RTTMS: h.RTTMS})
		}
		trs = append(trs, lt)
	}
	// Client-side traceroutes improve *forward* predictions from this
	// host (§4.3.1); reverse paths to a never-observed prefix remain
	// unpredictable by design.
	before := 0
	for _, dst := range f.targets[:20] {
		if dst != newSrc && queryPair(c, newSrc, dst).Fwd.Found {
			before++
		}
	}
	added := c.AddTraceroutes(trs)
	if added == 0 {
		t.Fatal("no links merged from local traceroutes")
	}
	after := 0
	for _, dst := range f.targets[:20] {
		if dst != newSrc && queryPair(c, newSrc, dst).Fwd.Found {
			after++
		}
	}
	_ = day
	if after <= before {
		t.Fatalf("forward coverage did not improve: %d -> %d (merged %d links)", before, after, added)
	}
}

func TestRankByRTTPrefersCloser(t *testing.T) {
	f := buildFixture(t, 107, 0)
	c := FromAtlas(f.a)
	src := f.vps[0]
	ranked, err := c.Snapshot().Rank(context.Background(), src, f.targets[:20], 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 20 {
		t.Fatalf("ranked %d, want 20", len(ranked))
	}
	prev := -1.0
	for _, r := range ranked {
		info := queryPair(c, src, r.Dst)
		if r.Dst != f.targets[r.Index] || r.Found != info.Found || r.RTTMS != info.RTTMS {
			t.Fatalf("candidate %d scored %+v, its query answers %+v", r.Index, r, info)
		}
		if !info.Found {
			break // unfound sort last
		}
		if prev >= 0 && info.RTTMS < prev {
			t.Fatalf("ranking not sorted: %v after %v", info.RTTMS, prev)
		}
		prev = info.RTTMS
	}
}

func TestBestReplicaAndRelay(t *testing.T) {
	f := buildFixture(t, 108, 0)
	c := FromAtlas(f.a)
	src := f.vps[0]
	replicas := f.vps[1:6]
	snap := c.Snapshot()
	for _, size := range []int{30_000, 1_500_000} {
		if ranked, err := snap.Rank(context.Background(), src, replicas, size); err != nil || !ranked[0].Found {
			t.Fatalf("no replica chosen for %d bytes (err %v)", size, err)
		}
	}
	choice, ok, err := snap.BestRelay(context.Background(), src, f.vps[1], f.vps[2:8], 3)
	if err != nil || !ok {
		t.Fatalf("no relay chosen (err %v)", err)
	}
	if choice.Relay == src || choice.Relay == f.vps[1] {
		t.Fatal("relay is an endpoint")
	}
	if choice.MOS <= 0 || choice.RTTMS <= 0 {
		t.Fatalf("choice carries no predicted performance: %+v", choice)
	}
}

func TestRankDetoursDisjointFirst(t *testing.T) {
	f := buildFixture(t, 109, 0)
	c := FromAtlas(f.a)
	src, dst := f.vps[0], f.vps[1]
	cands := f.vps[2:10]
	ranked, err := c.Snapshot().RankDetours(context.Background(), src, dst, cands)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != len(cands) {
		t.Fatalf("ranked %d of %d candidates", len(ranked), len(cands))
	}
	seen := map[Prefix]bool{}
	for _, p := range ranked {
		if seen[p] {
			t.Fatalf("duplicate detour %v", p)
		}
		seen[p] = true
	}
	// The first-ranked detour must share no more clusters with the
	// direct path than the last-ranked one (monotone by construction).
	direct := queryPair(c, src, dst).Fwd
	if direct.Found && len(ranked) >= 2 {
		shared := func(d Prefix) int {
			n := 0
			onPath := map[int32]bool{}
			for _, cl := range direct.Clusters {
				onPath[int32(cl)] = true
			}
			via := queryPair(c, src, d).Fwd
			onward := queryPair(c, d, dst).Fwd
			for _, p := range []Prediction{via, onward} {
				if !p.Found {
					return 1 << 20
				}
				for _, cl := range p.Clusters {
					if onPath[int32(cl)] {
						n++
					}
				}
			}
			return n
		}
		if shared(ranked[0]) > shared(ranked[len(ranked)-1]) {
			t.Errorf("first detour shares more of the direct path (%d) than the last (%d)",
				shared(ranked[0]), shared(ranked[len(ranked)-1]))
		}
	}
}

func TestConcurrentQueriesAndDelta(t *testing.T) {
	f0 := buildFixture(t, 110, 0)
	f1 := buildFixture(t, 110, 1)
	c := FromAtlas(f0.a)
	done := make(chan bool)
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- true }()
			for i := 0; i < 30; i++ {
				queryPair(c, f0.vps[(g+i)%len(f0.vps)], f0.targets[(g*7+i)%len(f0.targets)])
			}
		}(g)
	}
	delta := atlas.Diff(f0.a, f1.a)
	var buf bytes.Buffer
	if err := delta.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyDelta(&buf); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if c.Snapshot().Day() != 1 {
		t.Fatalf("day = %d", c.Snapshot().Day())
	}
}

func TestPrefixHelpers(t *testing.T) {
	ip := netsim.IP(10<<24 | 5<<16 | 3<<8 | 7)
	if netsim.PrefixOf(ip) != netsim.Prefix(10<<16|5<<8|3) {
		t.Fatal("PrefixOf broken")
	}
}
