// CDN replica selection (§7.1): a client-based content delivery network
// picks the replica that minimizes predicted download time, using iNano's
// latency and loss estimates with a TCP throughput model — and we check the
// choice against ground truth.
//
// Each client ranks all of its candidate replicas with one Snapshot.Rank
// batch: the engine answers the whole candidate set off shared prediction
// trees instead of running one Dijkstra per replica.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	inano "inano"
	"inano/internal/tcpmodel"
	"inano/sim"
)

func main() {
	world := sim.NewWorld(sim.Tiny, 3)
	vps := world.VantagePoints(16)
	campaign := world.Measure(sim.CampaignOptions{Day: 0, VPs: vps, Targets: world.EdgePrefixes()})
	client := inano.FromAtlas(campaign.BuildAtlas())

	rng := rand.New(rand.NewSource(3))
	edge := world.EdgePrefixes()
	clients := vps[:8]
	const fileSize = 1_500_000 // the paper's large-file case

	fmt.Printf("CDN replica selection, %dKB file, 5 random replicas per client\n\n", fileSize/1000)
	var chosenSum, bestSum, randSum float64
	for _, cl := range clients {
		// Each client sees 5 random replicas (Akamai-server stand-ins).
		replicas := make([]inano.Prefix, 0, 5)
		for len(replicas) < 5 {
			r := edge[rng.Intn(len(edge))]
			if r != cl {
				replicas = append(replicas, r)
			}
		}
		// One batch query ranks every replica by predicted download time
		// over the shared prediction trees; the pick is the first.
		ranked, err := client.Snapshot().Rank(context.Background(), cl, replicas, fileSize)
		if err != nil {
			log.Fatal(err)
		}
		if !ranked[0].Found {
			log.Printf("client %v: no prediction for any replica", cl)
			continue
		}
		pick := ranked[0].Dst
		// Score every replica with ground truth to see what we gave up.
		best, bestT := replicas[0], 0.0
		var pickT, randT float64
		for i, r := range replicas {
			rtt, _ := world.TrueRTT(0, cl, r)
			loss, _ := world.TrueLoss(0, cl, r)
			t := transferMS(fileSize, rtt, loss)
			if i == 0 || t < bestT {
				best, bestT = r, t
			}
			if r == pick {
				pickT = t
			}
			if i == 0 {
				randT = t // "random" = first drawn
			}
		}
		chosenSum += pickT
		bestSum += bestT
		randSum += randT
		marker := " "
		if pick == best {
			marker = "*"
		}
		fmt.Printf("client %v: picked %v (true %.0f ms, optimal %.0f ms)%s\n", cl, pick, pickT, bestT, marker)
	}
	n := float64(len(clients))
	fmt.Printf("\nmean download: iNano %.0f ms, optimal %.0f ms, random %.0f ms\n",
		chosenSum/n, bestSum/n, randSum/n)
}

// transferMS scores a download with the same PFTK-based transfer model the
// library applies to its predictions, here fed with ground truth.
func transferMS(size int, rttMS, loss float64) float64 {
	return tcpmodel.TransferTimeMS(size, rttMS, loss, tcpmodel.DefaultParams())
}
