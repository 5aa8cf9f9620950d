// VoIP relay selection (§7.2): two NATed endpoints relay a call through a
// third peer; iNano picks the relay by predicted loss then latency, and we
// score the resulting call quality (MOS) against the alternatives.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	inano "inano"
	"inano/internal/voip"
	"inano/sim"
)

func main() {
	world := sim.NewWorld(sim.Tiny, 5)
	vps := world.VantagePoints(18)
	campaign := world.Measure(sim.CampaignOptions{Day: 0, VPs: vps, Targets: world.EdgePrefixes()})
	client := inano.FromAtlas(campaign.BuildAtlas())

	src, dst := vps[0], vps[1]
	relays := vps[2:]
	fmt.Printf("call %v -> %v, %d candidate relays\n\n", src, dst, len(relays))

	// Relay selection is a batch workload: both legs of every candidate go
	// out as one Snapshot.QueryReqs batch under a deadline, bounding
	// call-setup latency.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	choice, ok, err := client.Snapshot().BestRelay(ctx, src, dst, relays, 10)
	if err != nil {
		log.Fatalf("relay scoring timed out: %v", err)
	}
	if !ok {
		log.Fatal("no relay predictable for both legs")
	}
	pick := choice.Relay
	fmt.Printf("iNano picks relay %v (predicted MOS %.2f)\n", pick, choice.MOS)

	// Score every relay with ground truth and show where the pick lands.
	fmt.Printf("\n%-18s %10s %10s %8s\n", "relay", "loss", "delay(ms)", "MOS")
	bestMOS, pickMOS := 0.0, 0.0
	for _, r := range relays {
		l1, ok1 := world.TrueLoss(0, src, r)
		l2, ok2 := world.TrueLoss(0, r, dst)
		r1, ok3 := world.TrueRTT(0, src, r)
		r2, ok4 := world.TrueRTT(0, r, dst)
		if !ok1 || !ok2 || !ok3 || !ok4 {
			continue
		}
		loss := 1 - (1-l1)*(1-l2)
		oneway := (r1 + r2) / 2
		mos := voip.MOS(oneway, loss)
		mark := ""
		if r == pick {
			mark = "  <- iNano's choice"
			pickMOS = mos
		}
		if mos > bestMOS {
			bestMOS = mos
		}
		fmt.Printf("%-18v %9.3f%% %10.1f %8.2f%s\n", r, loss*100, oneway, mos, mark)
	}
	fmt.Printf("\ntrue MOS of iNano's relay: %.2f (best possible %.2f)\n", pickMOS, bestMOS)
}
