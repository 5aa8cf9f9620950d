// Detour routing around failures (§7.3): when the direct path to a
// destination breaks, iNano ranks detour peers by how disjoint their
// predicted paths are from the broken one, so few attempts find a working
// route. We fail an AS adjacency on the direct path and watch the ranking
// route around it.
package main

import (
	"context"
	"fmt"
	"log"

	inano "inano"
	"inano/internal/netsim"
	"inano/sim"
)

func main() {
	world := sim.NewWorld(sim.Tiny, 9)
	vps := world.VantagePoints(16)
	campaign := world.Measure(sim.CampaignOptions{Day: 0, VPs: vps, Targets: world.EdgePrefixes()})
	client := inano.FromAtlas(campaign.BuildAtlas())

	src, dst := vps[0], world.EdgePrefixes()[11]
	direct, ok := world.TrueASPath(0, src, dst)
	if !ok || len(direct) < 3 {
		log.Fatalf("need a multi-AS direct path, got %v", direct)
	}
	// Fail the AS adjacency closest to the destination's provider edge.
	fa, fb := direct[len(direct)-3], direct[len(direct)-2]
	fmt.Printf("direct path %v -> %v: %v\n", src, dst, direct)
	fmt.Printf("injected failure: AS%d-AS%d link down\n\n", fa, fb)

	crossesFailure := func(a, b inano.Prefix) bool {
		p, ok := world.TrueASPath(0, a, b)
		if !ok {
			return true
		}
		for i := 0; i+1 < len(p); i++ {
			if (p[i] == fa && p[i+1] == fb) || (p[i] == fb && p[i+1] == fa) {
				return true
			}
		}
		return false
	}
	if !crossesFailure(src, dst) {
		log.Fatal("direct path unexpectedly avoids the failed edge")
	}

	candidates := make([]inano.Prefix, 0, len(vps)-1)
	for _, v := range vps[1:] {
		candidates = append(candidates, v)
	}
	ranked, err := client.Snapshot().RankDetours(context.Background(), src, dst, candidates)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("detours in iNano's disjointness order:")
	for i, d := range ranked {
		works := !crossesFailure(src, d) && !crossesFailure(d, dst)
		status := "still broken"
		if works {
			status = "WORKS"
		}
		fmt.Printf("%2d. %-16v %s\n", i+1, d, status)
		if works {
			fmt.Printf("\nrecovered after %d attempt(s)\n", i+1)
			return
		}
		if i == 7 {
			break
		}
	}
	fmt.Println("\nno working detour among the first 8 — widespread outage")
	_ = netsim.ASN(0)
}
