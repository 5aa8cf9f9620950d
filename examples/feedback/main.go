// The feedback example closes the paper's client-side measurement loop
// (§4.3.1, §5) end to end, in process: a client serving predictions from
// a freshly fetched atlas compares them against the round-trip times its
// "applications" actually observe, aggregates the error per destination,
// and spends a small budget of corrective traceroutes on the worst
// mispredictions — patching its local atlas copy-on-write. Run it with:
//
//	go run ./examples/feedback
package main

import (
	"context"
	"fmt"
	"time"

	inano "inano"
	"inano/internal/feedback"
	"inano/sim"
)

func main() {
	// A synthetic Internet and one day's measured atlas (the serving side
	// of §5 — in production this arrives through the swarm).
	w := sim.NewWorld(sim.Tiny, 7)
	vps := w.VantagePoints(12)
	targets := w.EdgePrefixes()
	campaign := w.Measure(sim.CampaignOptions{Day: 0, VPs: vps, Targets: append(targets, vps...)})
	client := inano.FromAtlas(campaign.BuildAtlas())

	// This host is one of the vantage points; its workload talks to the
	// other vantage points (think: a P2P swarm of well-known peers).
	me := vps[0]
	peers := vps[1:]

	ctx := context.Background()
	meanErr := func() float64 {
		sum := 0.0
		for _, p := range peers {
			truth, ok := w.TrueRTT(0, me, p)
			if !ok {
				continue
			}
			info, _ := client.Snapshot().Query(ctx, me, p) // the background context never ends
			sum += feedback.RelErr(info.RTTMS, truth, info.Found)
		}
		return sum / float64(len(peers))
	}

	fmt.Printf("feedback loop: %d peers, mean RTT error before: %.3f\n", len(peers), meanErr())

	// Applications report what they actually measured (here: ground truth
	// from the simulator; in reality, TCP RTT samples or ping).
	for round := 1; round <= 3; round++ {
		snap := client.Snapshot() // one round's reports, scored on one day
		for _, p := range peers {
			if truth, ok := w.TrueRTT(0, me, p); ok {
				client.ObserveRTT(ctx, snap, me, p, truth)
			}
		}
		// The corrective scheduler traceroutes the worst-mispredicted
		// destinations, bounded by the budget, and merges the results.
		r := client.NewCorrector(feedback.SimProber{Meter: campaign.Meter()},
			inano.CorrectorConfig{Budget: 4, MinError: 0.05, Cooldown: time.Hour}).RunOnce(ctx)
		fmt.Printf("round %d: %d/%d probes spent, %d atlas changes, mean error now %.3f\n",
			round, r.Probes, r.Budget, r.Merged, meanErr())
	}

	st := client.FeedbackStats()
	fmt.Printf("tracker: %d destinations, %d samples, worst EWMA error %.3f\n",
		st.Entries, st.TotalSamples, st.WorstErr)
}
