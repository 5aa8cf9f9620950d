package cluster

import (
	"slices"
	"sort"

	"inano/internal/netsim"
)

// ASPathOf extracts the AS-level path from a traceroute's responsive hops:
// map each interface to its origin AS via the prefix table, drop gaps, and
// collapse consecutive duplicates. ok is false if the result has an AS-level
// loop (the paper discards such paths).
func ASPathOf(hops []netsim.IP, prefixAS map[netsim.Prefix]netsim.ASN) (path []netsim.ASN, ok bool) {
	return ASPathOfFunc(nil, hops, func(p netsim.Prefix) netsim.ASN { return prefixAS[p] })
}

// ASPathOfFunc is ASPathOf over an origin-lookup function instead of a
// materialized table, for callers (the streaming atlas builder) whose
// origin data is arithmetic rather than a map. origin returns 0 for
// unknown prefixes (0 is never a valid ASN). The path is written over
// buf's backing array, which a caller that keeps no path may reuse.
func ASPathOfFunc(buf []netsim.ASN, hops []netsim.IP, origin func(netsim.Prefix) netsim.ASN) (path []netsim.ASN, ok bool) {
	path = buf[:0]
	for _, ip := range hops {
		if ip == 0 {
			continue
		}
		asn := origin(netsim.PrefixOf(ip))
		if asn == 0 {
			continue
		}
		if n := len(path); n > 0 && path[n-1] == asn {
			continue
		}
		path = append(path, asn)
	}
	for i, a := range path {
		if slices.Contains(path[:i], a) {
			return nil, false
		}
	}
	return path, len(path) > 0
}

// InferRelationships runs a Gao-style relationship inference over observed
// AS paths. For each path, the highest-degree AS is assumed to be the top of
// the hill: edges before it are customer-to-provider, edges after are
// provider-to-customer. Votes aggregate across paths; heavily conflicting
// edges become siblings, and un-transited edges between comparable-degree
// ASes become peers.
//
// Like the real algorithm, this is deliberately error-prone — iNano's
// refinements (§4.3) exist precisely because relationship inference cannot
// be trusted — so tests assert accuracy well below 100%.
func InferRelationships(paths [][]netsim.ASN) map[uint64]netsim.Rel {
	degree := make(map[netsim.ASN]int)
	adj := make(map[uint64]bool)
	for _, p := range paths {
		for i := 0; i+1 < len(p); i++ {
			k := netsim.ASPairKey(p[i], p[i+1])
			if !adj[k] {
				adj[k] = true
				degree[p[i]]++
				degree[p[i+1]]++
			}
		}
	}

	// upVotes[DirASPairKey(a,b)] counts observations of a climbing to b
	// (a appears on the uphill side, so a looks like b's customer).
	upVotes := make(map[uint64]int)
	// transited marks edges seen strictly inside a path (providing
	// transit), as opposed to only at the ends.
	transited := make(map[uint64]bool)
	for _, p := range paths {
		if len(p) < 2 {
			continue
		}
		top := 0
		for i := range p {
			if degree[p[i]] > degree[p[top]] {
				top = i
			}
		}
		for i := 0; i+1 < len(p); i++ {
			if i < top {
				upVotes[netsim.DirASPairKey(p[i], p[i+1])]++
			} else {
				upVotes[netsim.DirASPairKey(p[i+1], p[i])]++
			}
			if i > 0 && i+1 < len(p) {
				transited[netsim.ASPairKey(p[i], p[i+1])] = true
			}
		}
	}

	rels := make(map[uint64]netsim.Rel, len(adj))
	keys := make([]uint64, 0, len(adj))
	for k := range adj {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		a, b := netsim.ASN(k>>32), netsim.ASN(k&0xffffffff)
		ab := upVotes[netsim.DirASPairKey(a, b)] // a under b
		ba := upVotes[netsim.DirASPairKey(b, a)] // b under a
		var rel netsim.Rel                       // from a's perspective about b
		switch {
		case ab > 0 && ba > 0 && 3*min(ab, ba) >= max(ab, ba):
			rel = netsim.RelSibling
		case ab > ba:
			rel = netsim.RelProvider // b is a's provider
		case ba > ab:
			rel = netsim.RelCustomer
		default:
			rel = netsim.RelPeer
		}
		// Peer reclassification: comparable-degree ASes whose edge never
		// provides transit beyond the hilltop look settlement-free.
		if rel != netsim.RelSibling && !transited[k] {
			da, db := degree[a], degree[b]
			if da > 0 && db > 0 && da <= 4*db && db <= 4*da {
				rel = netsim.RelPeer
			}
		}
		rels[k] = rel
	}
	return rels
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// RelAccuracy scores an inferred relationship map against ground truth,
// returning the fraction of shared edges classified identically. Evaluation
// helper only.
func RelAccuracy(top *netsim.Topology, inferred map[uint64]netsim.Rel) float64 {
	match, total := 0, 0
	for k, r := range inferred {
		truth, ok := top.Rels[k]
		if !ok {
			continue
		}
		total++
		if truth == r {
			match++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(match) / float64(total)
}
