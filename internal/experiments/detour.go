package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	inano "inano"
	"inano/internal/netsim"
	"inano/internal/voip"
)

func mosOf(onewayMS, loss float64) float64 { return voip.MOS(onewayMS, loss) }

// Fig11Result reproduces Fig. 11: the fraction of failure cases still
// unreachable after trying N detours, for iNano's disjointness ranking
// versus random detour choice (log-2 y axis in the paper).
type Fig11Result struct {
	Cases             int
	MaxDetours        int
	UnreachableINano  []float64 // index N-1
	UnreachableRandom []float64
}

// Fig11Detour injects AS-edge failures and measures recovery. For each
// trial a destination and an AS-level edge on some sources' paths fail;
// a source is blocked when its ground-truth path crosses the failed edge,
// and a detour d rescues it when neither the src->d nor the d->dst path
// crosses it. Following the paper, a trial counts only when at least 10%
// of sources are blocked and at least 10% are not.
func Fig11Detour(l *Lab, trials, maxDetours int) Fig11Result {
	dd := l.Day(0)
	client := inano.FromAtlas(dd.Atlas)
	rng := rand.New(rand.NewSource(l.Cfg.Seed * 31337))
	srcs := l.VPs
	res := Fig11Result{
		MaxDetours:        maxDetours,
		UnreachableINano:  make([]float64, maxDetours),
		UnreachableRandom: make([]float64, maxDetours),
	}
	blockedTotal := 0

	usesEdge := func(src, dst netsim.Prefix, a, b netsim.ASN) bool {
		path, ok := l.W.TrueASPath(0, src, dst)
		if !ok {
			return true // unreachable counts as failed
		}
		for i := 0; i+1 < len(path); i++ {
			if (path[i] == a && path[i+1] == b) || (path[i] == b && path[i+1] == a) {
				return true
			}
		}
		return false
	}

	for trial := 0; trial < trials; trial++ {
		dst := l.Targets[rng.Intn(len(l.Targets))]
		// Candidate failures: AS edges on the sources' paths to dst.
		edgeCount := make(map[uint64]int)
		for _, s := range srcs {
			if s == dst {
				continue
			}
			if p, ok := l.W.TrueASPath(0, s, dst); ok {
				for i := 0; i+1 < len(p); i++ {
					edgeCount[netsim.ASPairKey(p[i], p[i+1])]++
				}
			}
		}
		var failedEdge uint64
		for e, n := range edgeCount {
			// The failure must partition the sources: some blocked,
			// some not.
			if n >= len(srcs)/10 && n <= len(srcs)*9/10 {
				if failedEdge == 0 || e < failedEdge {
					failedEdge = e
				}
			}
		}
		if failedEdge == 0 {
			continue
		}
		fa, fb := netsim.ASN(failedEdge>>32), netsim.ASN(failedEdge&0xffffffff)

		for _, src := range srcs {
			if src == dst || !usesEdge(src, dst, fa, fb) {
				continue
			}
			blockedTotal++
			// Candidate detours: the other sources.
			var cands []netsim.Prefix
			for _, d := range srcs {
				if d != src && d != dst {
					cands = append(cands, d)
				}
			}
			works := func(d netsim.Prefix) bool {
				return !usesEdge(src, d, fa, fb) && !usesEdge(d, dst, fa, fb)
			}
			// iNano: disjointness-ranked detours.
			ranked, _ := client.Snapshot().RankDetours(context.Background(), src, dst, cands) // the background context never ends
			rescuedAt := maxDetours + 1
			for i := 0; i < len(ranked) && i < maxDetours; i++ {
				if works(ranked[i]) {
					rescuedAt = i + 1
					break
				}
			}
			for n := 1; n <= maxDetours; n++ {
				if rescuedAt > n {
					res.UnreachableINano[n-1]++
				}
			}
			// Random detours.
			perm := rng.Perm(len(cands))
			rescuedAt = maxDetours + 1
			for i := 0; i < len(perm) && i < maxDetours; i++ {
				if works(cands[perm[i]]) {
					rescuedAt = i + 1
					break
				}
			}
			for n := 1; n <= maxDetours; n++ {
				if rescuedAt > n {
					res.UnreachableRandom[n-1]++
				}
			}
		}
	}
	res.Cases = blockedTotal
	if blockedTotal > 0 {
		for i := range res.UnreachableINano {
			res.UnreachableINano[i] /= float64(blockedTotal)
			res.UnreachableRandom[i] /= float64(blockedTotal)
		}
	}
	return res
}

// Render formats Fig. 11.
func (r Fig11Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 11: fraction of %d failure cases still unreachable after N detours\n", r.Cases)
	fmt.Fprintf(&b, "%4s %12s %12s %8s\n", "N", "iNano", "random", "ratio")
	for n := 1; n <= r.MaxDetours; n++ {
		in, rd := r.UnreachableINano[n-1], r.UnreachableRandom[n-1]
		ratio := 0.0
		if in > 0 {
			ratio = rd / in
		}
		fmt.Fprintf(&b, "%4d %11.1f%% %11.1f%% %7.1fx\n", n, in*100, rd*100, ratio)
	}
	fmt.Fprintf(&b, "(paper: iNano roughly halves unreachability vs random at equal N; 5 detours: 2%% vs 4%%)\n")
	return b.String()
}
