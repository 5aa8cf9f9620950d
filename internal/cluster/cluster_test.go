package cluster

import (
	"testing"

	"inano/internal/bgpsim"
	"inano/internal/netsim"
	"inano/internal/trace"
)

func observedIfaces(t *testing.T, top *netsim.Topology, seed int64) ([]netsim.IP, *trace.Campaign) {
	t.Helper()
	sim := bgpsim.New(top)
	m := trace.NewMeter(sim.Day(0))
	vps := trace.SelectVantagePoints(top, 10)
	n := len(top.EdgePrefixes)
	if n > 60 {
		n = 60
	}
	c := trace.RunCampaign(m, vps, top.EdgePrefixes[:n])
	var ips []netsim.IP
	for _, tr := range c.Traceroutes {
		for _, h := range tr.Hops {
			if h.IP != 0 && top.RouterPoP(h.IP) >= 0 {
				ips = append(ips, h.IP)
			}
		}
	}
	return ips, c
}

func TestClusterBasics(t *testing.T) {
	top := netsim.Generate(netsim.TestConfig(31))
	ips, _ := observedIfaces(t, top, 31)
	if len(ips) == 0 {
		t.Fatal("no observed interfaces")
	}
	c := Cluster(top, ips, DefaultConfig())
	if c.NumClusters == 0 {
		t.Fatal("no clusters")
	}
	for _, ip := range ips {
		id, ok := c.ClusterOf[ip]
		if !ok {
			t.Fatalf("interface %v not clustered", ip)
		}
		if int(id) >= c.NumClusters {
			t.Fatalf("cluster id %d out of range %d", id, c.NumClusters)
		}
	}
	for id := 0; id < c.NumClusters; id++ {
		if c.ClusterAS[id] == 0 {
			t.Fatalf("cluster %d has no AS", id)
		}
	}
}

// Clusters must be pure (never merge interfaces from different PoPs when
// resolution data is correct) but may split PoPs. With imperfect tools, the
// number of clusters is between the true PoP count observed and the
// interface count.
func TestClusterPurityAndSplits(t *testing.T) {
	top := netsim.Generate(netsim.TestConfig(32))
	ips, _ := observedIfaces(t, top, 32)
	c := Cluster(top, ips, DefaultConfig())
	// Purity: all interfaces in a cluster share one true PoP.
	popOf := make(map[ClusterID]netsim.PoPID)
	for ip, id := range c.ClusterOf {
		p := top.RouterPoP(ip)
		if prev, ok := popOf[id]; ok && prev != p {
			t.Fatalf("cluster %d mixes PoPs %d and %d", id, prev, p)
		}
		popOf[id] = p
	}
	truePoPs := make(map[netsim.PoPID]bool)
	for ip := range c.ClusterOf {
		truePoPs[top.RouterPoP(ip)] = true
	}
	if c.NumClusters < len(truePoPs) {
		t.Fatalf("fewer clusters (%d) than observed PoPs (%d)", c.NumClusters, len(truePoPs))
	}
	// With the default tool quality, splitting should be bounded.
	if c.NumClusters > 2*len(truePoPs) {
		t.Errorf("clustering too fragmented: %d clusters for %d PoPs", c.NumClusters, len(truePoPs))
	}
}

func TestClusterPerfectToolsRecoverPoPs(t *testing.T) {
	top := netsim.Generate(netsim.TestConfig(33))
	ips, _ := observedIfaces(t, top, 33)
	c := Cluster(top, ips, Config{AliasProb: 1, DNSProb: 1})
	truePoPs := make(map[netsim.PoPID]bool)
	for _, ip := range ips {
		truePoPs[top.RouterPoP(ip)] = true
	}
	if c.NumClusters != len(truePoPs) {
		t.Fatalf("perfect tools: %d clusters != %d observed PoPs", c.NumClusters, len(truePoPs))
	}
}

func TestClusterDeterministic(t *testing.T) {
	top := netsim.Generate(netsim.TestConfig(34))
	ips, _ := observedIfaces(t, top, 34)
	a := Cluster(top, ips, DefaultConfig())
	b := Cluster(top, ips, DefaultConfig())
	if a.NumClusters != b.NumClusters {
		t.Fatalf("nondeterministic cluster count %d vs %d", a.NumClusters, b.NumClusters)
	}
	for ip, id := range a.ClusterOf {
		if b.ClusterOf[ip] != id {
			t.Fatalf("interface %v cluster differs", ip)
		}
	}
}

func TestASPathOf(t *testing.T) {
	top := netsim.Generate(netsim.TestConfig(35))
	_, c := observedIfaces(t, top, 35)
	sim := bgpsim.New(top)
	day := sim.Day(0)
	checked := 0
	for _, tr := range c.Traceroutes {
		if !tr.Reached {
			continue
		}
		ips := make([]netsim.IP, len(tr.Hops))
		for i, h := range tr.Hops {
			ips[i] = h.IP
		}
		got, ok := ASPathOf(ips, top.PrefixOrigin)
		if !ok {
			continue
		}
		truth, _ := day.ASPath(top.PrefixOrigin[tr.Src], tr.Dst)
		// The observed AS path must be a subsequence of the truth
		// (unresponsive hops can only hide ASes, never invent them).
		ti := 0
		for _, a := range got {
			for ti < len(truth) && truth[ti] != a {
				ti++
			}
			if ti == len(truth) {
				t.Fatalf("observed AS path %v not a subsequence of truth %v", got, truth)
			}
			ti++
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no AS paths extracted")
	}
}

func TestASPathOfRejectsLoops(t *testing.T) {
	pa := map[netsim.Prefix]netsim.ASN{1: 10, 2: 20, 3: 10}
	hops := []netsim.IP{1 << 8, 2 << 8, 3 << 8}
	if _, ok := ASPathOf(hops, pa); ok {
		t.Fatal("AS loop accepted")
	}
}

func TestInferRelationshipsImperfectButUseful(t *testing.T) {
	top := netsim.Generate(netsim.TestConfig(36))
	_, c := observedIfaces(t, top, 36)
	var paths [][]netsim.ASN
	for _, tr := range c.Traceroutes {
		ips := make([]netsim.IP, len(tr.Hops))
		for i, h := range tr.Hops {
			ips[i] = h.IP
		}
		if p, ok := ASPathOf(ips, top.PrefixOrigin); ok && len(p) >= 2 {
			paths = append(paths, p)
		}
	}
	if len(paths) < 50 {
		t.Fatalf("only %d AS paths", len(paths))
	}
	rels := InferRelationships(paths)
	if len(rels) == 0 {
		t.Fatal("no relationships inferred")
	}
	acc := RelAccuracy(top, rels)
	if acc < 0.4 {
		t.Errorf("relationship inference accuracy %.2f too low to be useful", acc)
	}
	if acc == 1.0 {
		t.Errorf("relationship inference suspiciously perfect; the model expects errors")
	}
}

func TestStabilizeKeepsSharedIDs(t *testing.T) {
	top := netsim.Generate(netsim.TestConfig(38))
	ips, _ := observedIfaces(t, top, 38)
	prev := Cluster(top, ips, DefaultConfig())
	// Simulate the next day seeing most of the same interfaces plus some
	// new ones (here: a subset shifted).
	cur := Cluster(top, ips[:len(ips)*9/10], DefaultConfig())
	st := Stabilize(cur, prev)
	// Every interface present in both days must keep its previous ID.
	agree, total := 0, 0
	for ip, id := range st.ClusterOf {
		if pid, ok := prev.ClusterOf[ip]; ok {
			total++
			if pid == id {
				agree++
			}
		}
	}
	if total == 0 {
		t.Fatal("no shared interfaces")
	}
	if frac := float64(agree) / float64(total); frac < 0.95 {
		t.Errorf("only %.0f%% of shared interfaces kept their cluster ID", frac*100)
	}
	if st.NumClusters < prev.NumClusters {
		t.Errorf("stabilized space (%d) smaller than previous (%d)", st.NumClusters, prev.NumClusters)
	}
	for _, id := range st.ClusterOf {
		if int(id) >= st.NumClusters {
			t.Fatalf("cluster id %d out of space %d", id, st.NumClusters)
		}
	}
}

func TestStabilizeNilPrev(t *testing.T) {
	top := netsim.Generate(netsim.TestConfig(39))
	ips, _ := observedIfaces(t, top, 39)
	cur := Cluster(top, ips, DefaultConfig())
	if got := Stabilize(cur, nil); got != cur {
		t.Fatal("nil prev must be identity")
	}
}

func TestDSU(t *testing.T) {
	d := newDSU(6)
	d.union(0, 1)
	d.union(2, 3)
	d.union(1, 3)
	if d.find(0) != d.find(2) {
		t.Fatal("union chain broken")
	}
	if d.find(4) == d.find(0) || d.find(4) == d.find(5) {
		t.Fatal("spurious merge")
	}
}
