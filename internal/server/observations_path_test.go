package server

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"inano/internal/cluster"
	"inano/internal/feedback"
	"inano/internal/netsim"

	inano "inano"
)

// hopChain finds n interface prefixes mapping to n distinct clusters in
// the fixture's atlas — raw material for a mappable, loop-free hop list.
func hopChain(t *testing.T, f *fixture, n int) []netsim.Prefix {
	t.Helper()
	a := f.day0.Clone()
	seen := make(map[cluster.ClusterID]bool)
	var out []netsim.Prefix
	for p, c := range a.IfaceCluster {
		if seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, p)
		if len(out) == n {
			return out
		}
	}
	t.Fatalf("fixture atlas has only %d distinct-cluster interface prefixes, need %d", len(out), n)
	return nil
}

// hopsJSON renders a hops array for the observation wire format, one hop
// per prefix with increasing RTTs.
func hopsJSON(prefixes []netsim.Prefix) string {
	var parts []string
	for i, p := range prefixes {
		parts = append(parts, fmt.Sprintf(`{"ip":"%s","rtt_ms":%d}`, p.HostIP(), 5+5*i))
	}
	return "[" + strings.Join(parts, ",") + "]"
}

func obsLineWithHops(src, dst netsim.Prefix, rtt, predicted float64, hops string) string {
	pred := ""
	if predicted > 0 {
		pred = fmt.Sprintf(`,"predicted_ms":%g`, predicted)
	}
	return fmt.Sprintf(`{"src":"%s","dst":"%s","rtt_ms":%g%s,"hops":%s}`+"\n",
		src.HostIP(), dst.HostIP(), rtt, pred, hops)
}

func TestObservationPathIngest(t *testing.T) {
	f := buildFixture(t, 80)
	agg := feedback.NewAggregator()
	_, ts := start(t, f, func(c *Config) { c.Aggregator = agg })

	src, dst, pred := predictablePair(t, f)
	chain := hopChain(t, f, 3)
	out, code := postObservations(t, ts.URL, obsLineWithHops(src, dst, pred+20, pred, hopsJSON(chain)))
	if code != http.StatusOK || out.Accepted != 1 || out.Paths != 1 || out.PathsRejected != 0 {
		t.Fatalf("ingest: %d %+v", code, out)
	}
	st := agg.Stats()
	if st.Paths != 1 {
		t.Fatalf("aggregator stats %+v, want one stored path", st)
	}
	snap := agg.Snapshot(0)
	if len(snap.Paths) != 1 || snap.Paths[0].Prefix != dst || len(snap.Paths[0].Clusters) != 3 {
		t.Fatalf("snapshot paths %+v", snap.Paths)
	}
	// The scalar residual rode along on the same line.
	if len(snap.Prefixes) != 1 || snap.Prefixes[0].Prefix != dst {
		t.Fatalf("snapshot residuals %+v", snap.Prefixes)
	}
}

func TestObservationPathLoopRejectedResidualKept(t *testing.T) {
	f := buildFixture(t, 81)
	agg := feedback.NewAggregator()
	_, ts := start(t, f, func(c *Config) { c.Aggregator = agg })

	src, dst, pred := predictablePair(t, f)
	chain := hopChain(t, f, 2)
	loop := []netsim.Prefix{chain[0], chain[1], chain[0]}
	out, code := postObservations(t, ts.URL, obsLineWithHops(src, dst, pred+20, pred, hopsJSON(loop)))
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out.PathsRejected != 1 || out.Paths != 0 {
		t.Fatalf("looping hop list not rejected: %+v", out)
	}
	if out.Accepted != 1 {
		t.Fatalf("scalar residual must survive a rejected hop list: %+v", out)
	}
	if st := agg.Stats(); st.Paths != 0 {
		t.Fatalf("rejected path stored: %+v", st)
	}
}

func TestObservationPathUnmappableRejected(t *testing.T) {
	f := buildFixture(t, 82)
	agg := feedback.NewAggregator()
	_, ts := start(t, f, func(c *Config) { c.Aggregator = agg })

	src, dst, pred := predictablePair(t, f)
	chain := hopChain(t, f, 2)
	hops := fmt.Sprintf(`[{"ip":"%s","rtt_ms":5},{"ip":"203.0.113.9","rtt_ms":9},{"ip":"%s","rtt_ms":12}]`,
		chain[0].HostIP(), chain[1].HostIP())
	out, code := postObservations(t, ts.URL, obsLineWithHops(src, dst, pred+20, pred, hops))
	if code != http.StatusOK || out.PathsRejected != 1 || out.Paths != 0 {
		t.Fatalf("unmappable hop not rejected: %d %+v", code, out)
	}
}

func TestObservationStructureOnlyUnknownDestination(t *testing.T) {
	f := buildFixture(t, 83)
	agg := feedback.NewAggregator()
	_, ts := start(t, f, func(c *Config) { c.Aggregator = agg })

	// A destination the serving atlas cannot place, probed by a client
	// that got no prediction (no predicted_ms): the hop tail is the whole
	// point — structure-only coverage growth.
	src := f.vps[0]
	dst := netsim.Prefix(0xCB0071) // 203.0.113.0/24
	chain := hopChain(t, f, 3)
	out, code := postObservations(t, ts.URL, obsLineWithHops(src, dst, 45, 0, hopsJSON(chain)))
	if code != http.StatusOK || out.Accepted != 1 || out.Paths != 1 || out.Unknown != 0 {
		t.Fatalf("structure-only ingest: %d %+v", code, out)
	}
	snap := agg.Snapshot(0)
	if len(snap.Paths) != 1 || snap.Paths[0].Prefix != dst {
		t.Fatalf("snapshot paths %+v", snap.Paths)
	}
	if len(snap.Prefixes) != 0 {
		t.Fatalf("no residual should exist for an unpredicted pair: %+v", snap.Prefixes)
	}
}

// TestObservationPathRotationBuysNoAgreement: a reporter whose connection
// the atlas can place gets one path slot per destination no matter how
// many source addresses its report lines claim — so its uploads can never
// corroborate each other into shipped structure.
func TestObservationPathRotationBuysNoAgreement(t *testing.T) {
	f := buildFixture(t, 84)
	agg := feedback.NewAggregator()
	loopIP, err := netsim.ParseIPv4("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	a := f.day0.Clone()
	a.PrefixCluster[netsim.PrefixOf(loopIP)] = a.PrefixCluster[f.vps[0]]
	// The engine serves from a compiled snapshot of the atlas, so the
	// patched attachment table only takes effect through a rebuild.
	f.client = inano.FromAtlas(a)
	_, ts := start(t, f, func(c *Config) { c.Aggregator = agg })

	src1, dst, pred := predictablePair(t, f)
	var src2 netsim.Prefix
	for _, vp := range f.vps {
		if vp != src1 && vp != dst && queryPair(f.client.Snapshot(), vp, dst).Found {
			src2 = vp
			break
		}
	}
	if src2 == 0 {
		t.Skip("fixture has no second predictable source")
	}
	chain := hopsJSON(hopChain(t, f, 3))
	body := obsLineWithHops(src1, dst, pred+10, pred, chain) + obsLineWithHops(src2, dst, pred+10, pred, chain)
	out, code := postObservations(t, ts.URL, body)
	if code != http.StatusOK || out.Paths != 2 {
		t.Fatalf("ingest: %d %+v", code, out)
	}
	if st := agg.Stats(); st.Paths != 1 {
		t.Fatalf("claimed-src rotation bought %d path slots, want 1 (connection identity)", st.Paths)
	}
	// One reporter's self-agreement never clears the bar.
	if agreed := agg.Snapshot(0).AgreedPaths(2); len(agreed) != 0 {
		t.Fatalf("single rotating reporter shipped structure: %+v", agreed)
	}
}
