package atlas

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"inano/internal/bgpsim"
	"inano/internal/cluster"
	"inano/internal/netsim"
	"inano/internal/trace"
)

// TestStreamBuilderMatchesBuild pins the out-of-core contract: driving
// StreamBuilder by hand over the same trace stream produces an atlas
// byte-identical to Build's.
func TestStreamBuilderMatchesBuild(t *testing.T) {
	top := netsim.Generate(netsim.TestConfig(91))
	sim := bgpsim.New(top, bgpsim.DefaultConfig())
	dv := sim.Day(0)
	m := trace.NewMeter(dv, trace.DefaultOptions())
	vps := trace.SelectVantagePoints(top, 10)
	targets := top.EdgePrefixes
	if len(targets) > 60 {
		targets = targets[:60]
	}
	c := trace.RunCampaign(m, vps, targets)
	in := BuildInput{
		Top: top, Day: dv, Meter: m,
		VPTraces:   c.Traceroutes,
		BGPFeeds:   DefaultFeeds(top, 5),
		ClusterCfg: cluster.DefaultConfig(),
	}
	want := Build(in)

	sb := NewStreamBuilder(StreamInput{
		Tools: NewSimTools(top, dv, m, in.BGPFeeds, in.ClusterCfg),
		Day:   dv.DayNum(),
	})
	// Stream the same traces through a copy buffer to prove nothing of a
	// trace is retained across AddTrace calls.
	var buf trace.Traceroute
	feed := func(f func(*trace.Traceroute, bool)) {
		for i := range c.Traceroutes {
			src := &c.Traceroutes[i]
			buf.Src, buf.Dst, buf.Day, buf.Reached = src.Src, src.Dst, src.Day, src.Reached
			buf.Hops = append(buf.Hops[:0], src.Hops...)
			f(&buf, true)
		}
	}
	feed(func(tr *trace.Traceroute, _ bool) { sb.ObserveIfaces(tr) })
	sb.StartTraces()
	feed(func(tr *trace.Traceroute, fromVP bool) { sb.AddTrace(tr, fromVP) })
	got := sb.Finish()

	var wb, gb bytes.Buffer
	if err := want.Encode(&wb); err != nil {
		t.Fatal(err)
	}
	if err := got.Encode(&gb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
		t.Fatalf("streamed atlas differs from Build: %d vs %d bytes", gb.Len(), wb.Len())
	}
}

// streamScaleAtlas runs a two-pass out-of-core build over a small scale
// world and returns the atlas plus the campaign that produced it.
func streamScaleAtlas(t testing.TB, seed int64, prefsMax int) (*Atlas, *trace.ScaleCampaign) {
	t.Helper()
	cfg := netsim.DefaultScaleConfig(seed)
	cfg.ASes, cfg.Prefixes = 250, 900
	w := netsim.GenerateScale(cfg)
	vps, clients := w.Population(6, 3)
	camp := &trace.ScaleCampaign{W: w, VPs: vps, ClientSrcs: clients, ClientDsts: 25}
	sb := NewStreamBuilder(StreamInput{
		Tools:         NewScaleTools(w, 5),
		Day:           0,
		PrefsMaxDests: prefsMax,
	})
	camp.Run(func(tr *trace.Traceroute, _ bool) bool { sb.ObserveIfaces(tr); return true })
	sb.StartTraces()
	camp.Run(func(tr *trace.Traceroute, fromVP bool) bool { sb.AddTrace(tr, fromVP); return true })
	return sb.Finish(), camp
}

func TestScaleStreamBuild(t *testing.T) {
	a, camp := streamScaleAtlas(t, 17, 64)
	c := a.Counts()
	if c.Links == 0 || c.PrefixCluster == 0 || c.PrefixAS == 0 || c.Tuples == 0 || c.Providers == 0 {
		t.Fatalf("scale atlas missing datasets: %+v", c)
	}
	if a.NumClusters == 0 {
		t.Fatal("no clusters")
	}
	// Every edge prefix got both an origin and an attachment (full
	// coverage campaign, all traces reach).
	w := camp.W
	for j := 0; j < w.NumPrefixes(); j += 17 {
		p := w.EdgePrefixAt(j)
		if a.PrefixAS[p] == 0 {
			t.Fatalf("edge prefix %v missing origin", p)
		}
		if _, ok := a.PrefixCluster[p]; !ok {
			t.Fatalf("edge prefix %v missing attachment", p)
		}
	}
	// Round-trips through the codec and the flat form.
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := dec.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("scale atlas does not round-trip the codec")
	}
	// The out-of-core build is pinned to the byte, as sim's
	// TestBuildGoldenBytes pins the materialized one: a change to the
	// builder that moves a byte here has changed the atlas, not its cost.
	sum := sha256.Sum256(buf.Bytes())
	if got, want := fmt.Sprintf("%s/%d", hex.EncodeToString(sum[:4]), buf.Len()), "026cd022/4794"; got != want {
		t.Errorf("scale atlas sha256 prefix/size = %s, want %s", got, want)
	}
	if f := Compile(a); f == nil {
		t.Fatal("scale atlas does not compile to flat form")
	}

	// Re-running the identical out-of-core build is byte-identical
	// (seeded world + deterministic two-pass stream).
	b, _ := streamScaleAtlas(t, 17, 64)
	var bb bytes.Buffer
	if err := b.Encode(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), bb.Bytes()) {
		t.Fatal("scale build not deterministic across runs")
	}
}

// TestPrefsMaxDestsCaps checks the preference-BFS cap only ever shrinks
// the preference set and that 0 means unlimited.
func TestPrefsMaxDestsCaps(t *testing.T) {
	full, _ := streamScaleAtlas(t, 23, 0)
	capped, _ := streamScaleAtlas(t, 23, 2)
	if len(capped.Prefs) > len(full.Prefs) {
		t.Fatalf("capped prefs (%d) exceed uncapped (%d)", len(capped.Prefs), len(full.Prefs))
	}
	for k := range capped.Prefs {
		if !full.Prefs[k] {
			t.Fatalf("capped inference invented preference %d", k)
		}
	}
}
