package scenario

import (
	"fmt"
	"sort"
	"sync"
	"time"

	inano "inano"
	"inano/internal/netsim"
)

// flashcrowdScenario replays a query storm on a single destination (a
// flash crowd: every peer in a swarm suddenly wants paths to the same
// hot prefix). A reference engine answers the workload serially to pin
// the expected answers and the number of prediction-tree builds it
// costs; then 16 concurrent workers hammer one shared engine with the
// same workload many times over. Invariants: the tree cache's one search
// a key keeps the total Dijkstra builds O(1) — no higher than the
// serial reference plus slack — every concurrent answer is byte-equal to
// the reference, and tail latency stays bounded.
//
// Mutation "cache-off": each worker gets a private engine (no shared
// cache), multiplying builds by the worker count; the O(1) build
// invariant must trip.
func flashcrowdScenario() Scenario {
	return Scenario{
		Name:      "flashcrowd",
		Summary:   "query storm on one destination: singleflight keeps builds O(1), answers exact, p99 bounded",
		Mutations: []string{"cache-off"},
		Run: func(cfg Config, rep *Report) {
			l := cfg.lab()
			a0 := l.Day(0).Atlas

			// The hot destination: the first validation destination the
			// engine can actually answer, stormed from every distinct
			// validation source.
			ref := inano.FromAtlas(a0)
			var hotDst netsim.Prefix
			var srcs []netsim.Prefix
			seenSrc := make(map[netsim.Prefix]bool)
			for _, vp := range l.Day(0).Validation {
				if hotDst == 0 && query(ref, vp.Src, vp.Dst).Found {
					hotDst = vp.Dst
				}
				if !seenSrc[vp.Src] {
					seenSrc[vp.Src] = true
					srcs = append(srcs, vp.Src)
				}
			}
			if !rep.Check(hotDst != 0, "found an answerable hot destination") {
				return
			}
			rep.Logf("hot destination %v, %d distinct sources", hotDst, len(srcs))

			// Serial reference: answers + build cost.
			refAnswers := make(map[netsim.Prefix]string, len(srcs))
			for _, s := range srcs {
				refAnswers[s] = fmt.Sprintf("%+v", query(ref, s, hotDst))
			}
			refBuilds := ref.CacheStats().Builds
			rep.Logf("serial reference: %d tree builds for the hot workload", refBuilds)
			rep.Check(refBuilds > 0, "reference performed %d > 0 builds", refBuilds)

			const workers = 16
			const perWorker = 200
			shared := inano.FromAtlas(a0)
			engines := make([]*inano.Client, workers)
			for i := range engines {
				if cfg.Mutation == "cache-off" {
					engines[i] = inano.FromAtlas(a0) // private cache per worker
				} else {
					engines[i] = shared
				}
			}

			latencies := make([][]time.Duration, workers)
			mismatches := make([]int, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					eng := engines[w]
					for q := 0; q < perWorker; q++ {
						src := srcs[(w*perWorker+q)%len(srcs)]
						t0 := time.Now()
						got := fmt.Sprintf("%+v", query(eng, src, hotDst))
						latencies[w] = append(latencies[w], time.Since(t0))
						if got != refAnswers[src] {
							mismatches[w]++
						}
					}
				}(w)
			}
			wg.Wait()

			var all []time.Duration
			badAnswers := 0
			for w := 0; w < workers; w++ {
				all = append(all, latencies[w]...)
				badAnswers += mismatches[w]
			}
			var builds uint64
			if cfg.Mutation == "cache-off" {
				for _, e := range engines {
					builds += e.CacheStats().Builds
				}
			} else {
				builds = shared.CacheStats().Builds
			}
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			p99 := all[len(all)*99/100]
			rep.Logf("storm: %d workers x %d queries, %d total builds, p99 %v", workers, perWorker, builds, p99)

			// Invariant 1: singleflight keeps builds O(1) — the storm costs
			// no more than the serial reference plus slack for in-flight
			// races at worker startup.
			rep.Check(builds <= refBuilds+2,
				"storm builds %d within O(1) bound (reference %d + 2)", builds, refBuilds)
			// Invariant 2: every concurrent answer equals the reference.
			rep.Check(badAnswers == 0, "all %d storm answers byte-equal the reference (%d mismatches)",
				workers*perWorker, badAnswers)
			// Invariant 3: bounded tail latency (generous: cached queries
			// are microseconds; this only trips on pathological serialization).
			rep.Check(p99 < 250*time.Millisecond, "p99 %v under 250ms", p99)
		},
	}
}
