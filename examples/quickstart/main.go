// Quickstart: generate a synthetic Internet, run one day's measurement
// campaign, build the compact atlas, and answer a path query locally — the
// whole iNano pipeline in one file.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	inano "inano"
	"inano/sim"
)

func main() {
	// 1. A deterministic synthetic Internet with ground-truth routing.
	world := sim.NewWorld(sim.Tiny, 1)
	fmt.Println("world:", world.Top.Stats())

	// 2. One day's measurement campaign: vantage points traceroute every
	// edge prefix (the PlanetLab role).
	vps := world.VantagePoints(14)
	campaign := world.Measure(sim.CampaignOptions{
		Day:     0,
		VPs:     vps,
		Targets: world.EdgePrefixes(),
	})

	// 3. The server-side build: cluster interfaces into PoPs, annotate
	// links, infer 3-tuples / preferences / providers.
	atlas := campaign.BuildAtlas()
	var buf bytes.Buffer
	if err := atlas.Encode(&buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("atlas: %d clusters, %d links, %d 3-tuples — %d bytes compressed\n",
		atlas.NumClusters, len(atlas.Links), len(atlas.Tuples), buf.Len())

	// 4. The client side: load the atlas and query it, exactly as an
	// application linking the library would.
	client, err := inano.Load(&buf)
	if err != nil {
		log.Fatal(err)
	}
	src, dst := vps[0], world.EdgePrefixes()[7]
	info, err := client.Snapshot().Query(context.Background(), src, dst)
	if err != nil {
		log.Fatal(err)
	}
	if !info.Found {
		log.Fatalf("no prediction for %v -> %v", src, dst)
	}
	fmt.Printf("\nquery %v -> %v\n", src, dst)
	fmt.Printf("  predicted RTT:   %.1f ms\n", info.RTTMS)
	fmt.Printf("  predicted loss:  %.2f%%\n", info.LossRate*100)
	fmt.Printf("  forward AS path: %v\n", info.Fwd.ASPath)

	// 5. Compare against the ground truth the simulator knows.
	if rtt, ok := world.TrueRTT(0, src, dst); ok {
		fmt.Printf("  true RTT:        %.1f ms (error %.1f ms)\n", rtt, abs(info.RTTMS-rtt))
	}
	if path, ok := world.TrueASPath(0, src, dst); ok {
		fmt.Printf("  true AS path:    %v\n", path)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
