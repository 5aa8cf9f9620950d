package atlas

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"inano/internal/netsim"
)

// inferPreferencesRef is §4.3.3 as the builder ran it before the dense
// graph: one map-of-maps BFS per destination AS, every distance field held
// at once. Kept as the reference inferPreferences is compared against.
func inferPreferencesRef(paths []*weightedPath, asAdj map[netsim.ASN]map[netsim.ASN]bool, maxDests int) map[uint64]bool {
	destWeight := make(map[netsim.ASN]int)
	for _, u := range paths {
		if len(u.path) >= 3 {
			destWeight[u.path[len(u.path)-1]] += u.count
		}
	}
	dests := make([]netsim.ASN, 0, len(destWeight))
	for d := range destWeight {
		dests = append(dests, d)
	}
	if maxDests > 0 && len(dests) > maxDests {
		sort.Slice(dests, func(i, j int) bool {
			if destWeight[dests[i]] != destWeight[dests[j]] {
				return destWeight[dests[i]] > destWeight[dests[j]]
			}
			return dests[i] < dests[j]
		})
		dests = dests[:maxDests]
	}
	distTo := make(map[netsim.ASN]map[netsim.ASN]int32, len(dests))
	for _, d := range dests {
		distTo[d] = bfsDistRef(d, asAdj)
	}
	votes := make(map[uint64]int)
	for _, u := range paths {
		p := u.path
		if len(p) < 3 {
			continue
		}
		dist := distTo[p[len(p)-1]]
		for k := 0; k+2 < len(p); k++ {
			at, taken := p[k], p[k+1]
			remaining := int32(len(p) - k - 2)
			for x := range asAdj[at] {
				if x == taken || (k > 0 && x == p[k-1]) {
					continue
				}
				if dx, ok := dist[x]; ok && dx == remaining {
					votes[PackTriple(at, taken, x)] += u.count
				}
			}
		}
	}
	prefs := make(map[uint64]bool)
	for k, n := range votes {
		at, b, c := UnpackTriple(k)
		rev := votes[PackTriple(at, c, b)]
		if n >= 2 && n >= 3*rev {
			prefs[k] = true
		}
	}
	return prefs
}

func bfsDistRef(d netsim.ASN, asAdj map[netsim.ASN]map[netsim.ASN]bool) map[netsim.ASN]int32 {
	dist := map[netsim.ASN]int32{d: 0}
	frontier := []netsim.ASN{d}
	for h := int32(1); len(frontier) > 0; h++ {
		var next []netsim.ASN
		for _, x := range frontier {
			for y := range asAdj[x] {
				if _, ok := dist[y]; !ok {
					dist[y] = h
					next = append(next, y)
				}
			}
		}
		frontier = next
	}
	return dist
}

// TestInferPreferencesMatchesReference runs both on random observed
// graphs: sparse ASNs, two components, routes that walk the graph and
// routes that do not (a stale feed's), routes too short to vote, a
// destination no adjacency mentions, every destination kept and a cap
// below their number.
func TestInferPreferencesMatchesReference(t *testing.T) {
	inferred := 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(60)
		asns := make([]netsim.ASN, n)
		for i := range asns {
			asns[i] = netsim.ASN(1 + i*(1+rng.Intn(3)) + rng.Intn(2)*70000)
		}
		asAdj := make(map[netsim.ASN]map[netsim.ASN]bool)
		link := func(x, y netsim.ASN) {
			for _, e := range [][2]netsim.ASN{{x, y}, {y, x}} {
				if asAdj[e[0]] == nil {
					asAdj[e[0]] = make(map[netsim.ASN]bool)
				}
				asAdj[e[0]][e[1]] = true
			}
		}
		half := n / 2 // no edge crosses it: distances across are undefined
		for e := 0; e < 3*n; e++ {
			i := rng.Intn(n)
			lo, hi := 0, half
			if i >= half {
				lo, hi = half, n
			}
			if j := lo + rng.Intn(hi-lo); asns[i] != asns[j] {
				link(asns[i], asns[j])
			}
		}
		var paths []*weightedPath
		dests := make(map[netsim.ASN]bool)
		for len(paths) < 4*n {
			p := []netsim.ASN{asns[rng.Intn(n)]}
			for want := rng.Intn(7); len(p) <= want; {
				nbs := asAdj[p[len(p)-1]]
				if len(nbs) == 0 || rng.Intn(8) == 0 {
					p = append(p, asns[rng.Intn(n)]) // not a walk of the graph
					continue
				}
				keys := make([]netsim.ASN, 0, len(nbs))
				for y := range nbs {
					keys = append(keys, y)
				}
				sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
				p = append(p, keys[rng.Intn(len(keys))])
			}
			if rng.Intn(20) == 0 {
				p = append(p, netsim.ASN(900000+rng.Intn(3))) // in no adjacency
			}
			paths = append(paths, &weightedPath{path: p, key: asPathKey(p), count: 1 + rng.Intn(4)})
			if len(p) >= 3 {
				dests[p[len(p)-1]] = true
			}
		}
		for _, maxDests := range []int{0, 1, len(dests) / 2, len(dests) - 1, len(dests), len(dests) + 5} {
			got, want := inferPreferences(paths, asAdj, maxDests), inferPreferencesRef(paths, asAdj, maxDests)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, maxDests %d of %d (%d ASes, %d routes): %d preferences, the reference infers %d",
					seed, maxDests, len(dests), n, len(paths), len(got), len(want))
			}
			inferred += len(want)
		}
	}
	if inferred < 1000 {
		t.Fatalf("only %d preferences inferred over every case: the graphs exercise nothing", inferred)
	}
}
