package atlas

import (
	"bytes"
	"math/rand"
	"testing"

	"inano/internal/cluster"
	"inano/internal/netsim"
)

// checkLinkOrder holds a to the link-order invariant: Links strictly
// ascends in (From, To), LinkAt agrees with a linear scan of Links for
// every pair, present or absent (one cluster past each end of the space
// included), and Compile of a passes Validate.
func checkLinkOrder(t *testing.T, what string, a *Atlas) {
	t.Helper()
	for i := 1; i < len(a.Links); i++ {
		if x, y := a.Links[i-1], a.Links[i]; linkOrder(x, y) >= 0 {
			t.Fatalf("%s: link %d (%d,%d) after (%d,%d): Links not strictly ascending", what, i, y.From, y.To, x.From, x.To)
		}
	}
	scan := make(map[[2]cluster.ClusterID]int32, len(a.Links))
	for i, l := range a.Links {
		if _, seen := scan[[2]cluster.ClusterID{l.From, l.To}]; !seen {
			scan[[2]cluster.ClusterID{l.From, l.To}] = int32(i)
		}
	}
	n := cluster.ClusterID(a.NumClusters)
	for from := cluster.ClusterID(-1); from <= n; from++ {
		for to := cluster.ClusterID(-1); to <= n; to++ {
			want, ok := scan[[2]cluster.ClusterID{from, to}]
			if !ok {
				want = -1
			}
			if got := a.LinkAt(from, to); got != want {
				t.Fatalf("%s: LinkAt(%d,%d) = %d, a scan of Links finds %d", what, from, to, got, want)
			}
		}
	}
	if err := Compile(a).Validate(); err != nil {
		t.Fatalf("%s: Compile: %v", what, err)
	}
}

// randomPaths draws agreed path tails over a's clusters, some of them
// toward a destination whose origin AS owns a cluster of the tail, so the
// access-tail reversal folds too, and some repeating a link of an earlier
// tail.
func randomPaths(rng *rand.Rand, a *Atlas) []ObservedPath {
	var paths []ObservedPath
	for i := 0; i < 5+rng.Intn(10); i++ {
		perm := rng.Perm(a.NumClusters)[:2+rng.Intn(4)]
		p := ObservedPath{Dst: netsim.Prefix(600 + rng.Intn(20))}
		for _, c := range perm {
			p.Clusters = append(p.Clusters, cluster.ClusterID(c))
		}
		for range len(perm) - 1 {
			p.LinkMS = append(p.LinkMS, float64(rng.Intn(5000))/100)
		}
		a.PrefixAS[p.Dst] = a.ClusterAS[p.Clusters[len(p.Clusters)-1]]
		paths = append(paths, p)
		if len(paths) > 1 && rng.Intn(3) == 0 {
			paths = append(paths, paths[rng.Intn(len(paths)-1)])
		}
	}
	return paths
}

// TestLinkOrderInvariant runs every producer of a map atlas — Build,
// Decode, Clone, Apply, FoldPaths, CarryFoldedPaths — and holds each
// result to checkLinkOrder.
func TestLinkOrderInvariant(t *testing.T) {
	built, _, _ := buildTestAtlas(t, 53, 0)
	checkLinkOrder(t, "Build", built)

	rng := rand.New(rand.NewSource(38))
	for round := range 20 {
		a := makeRandomAtlas(rng, round)
		checkLinkOrder(t, "random", a)

		var buf bytes.Buffer
		if err := a.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		checkLinkOrder(t, "Decode", dec)

		clone := a.Clone()
		checkLinkOrder(t, "Clone", clone)

		next := makeRandomAtlas(rng, round+1)
		if err := clone.Apply(Diff(a, next)); err != nil {
			t.Fatal(err)
		}
		checkLinkOrder(t, "Apply", clone)

		folded := a.Clone()
		FoldPaths(folded, randomPaths(rng, folded))
		checkLinkOrder(t, "FoldPaths", folded)

		next.NumClusters = max(next.NumClusters, folded.NumClusters)
		for len(next.ClusterAS) < next.NumClusters {
			next.ClusterAS = append(next.ClusterAS, netsim.ASN(1+rng.Intn(10)))
		}
		CarryFoldedPaths(next, folded)
		checkLinkOrder(t, "CarryFoldedPaths", next)
		FoldPaths(next, randomPaths(rng, next))
		checkLinkOrder(t, "FoldPaths after CarryFoldedPaths", next)
	}
}
