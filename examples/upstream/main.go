// The upstream example closes the paper's measurement loop in BOTH
// directions, in process: reporting clients measure real round-trip
// times, their corrective observations flow through an Uploader into the
// build server's Aggregator (in production: POST /v1/observations), the
// build folds the robust per-prefix aggregate into the next daily delta,
// and a client that never reported anything applies that delta and serves
// better predictions — every peer benefits from any peer's probes. Run it
// with:
//
//	go run ./examples/upstream
package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"

	inano "inano"
	"inano/internal/atlas"
	"inano/internal/feedback"
	"inano/internal/server"
	"inano/sim"
)

func main() {
	// A synthetic Internet and one day's measured atlas.
	w := sim.NewWorld(sim.Tiny, 7)
	vps := w.VantagePoints(12)
	targets := w.EdgePrefixes()
	campaign := w.Measure(sim.CampaignOptions{Day: 0, VPs: vps, Targets: append(targets, vps...)})
	base := campaign.BuildAtlas()

	// The build server: serves the atlas and aggregates uploaded
	// observations (inanod -aggregate).
	agg := feedback.NewAggregator()
	srv := server.New(server.Config{
		Client:     inano.FromAtlas(base),
		Aggregator: agg,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Reporting clients: each measures ground truth toward the shared
	// peer set and ships the residuals upstream through an uploader.
	reporters := vps[1:6]
	peers := vps[6:]
	shipped := 0
	for _, me := range reporters {
		c := inano.FromAtlas(base)
		up := inano.NewUploader(ts.URL + "/v1/observations")
		for _, p := range peers {
			truth, ok := w.TrueRTT(0, me, p)
			if !ok {
				continue
			}
			info, _ := c.Snapshot().Query(context.Background(), me, p) // the background context never ends
			if !info.Found {
				continue
			}
			up.Add(inano.UpstreamObservation{
				Src: me.HostIP(), Dst: p.HostIP(),
				RTTMS: truth, PredictedMS: info.RTTMS,
			})
		}
		n, err := up.Flush(context.Background())
		if err != nil {
			panic(err)
		}
		shipped += n
	}
	snap := agg.Snapshot(0)
	fmt.Printf("upstream: %d reporters shipped %d observations -> %d aggregated prefixes\n",
		len(reporters), shipped, len(snap.Prefixes))

	// The build folds the aggregate into the next delta
	// (inano-build -observations obs.json).
	delta, _, n := atlas.BuildDeltaWithObservations(base, base.Clone(), snap.Residuals(3))
	fmt.Printf("build: %d corrections folded into the delta (%d entries, %d bytes)\n",
		n, delta.Entries(), delta.EncodedSize())

	// A client that never reported applies the delta (in production it
	// arrives through the swarm via WatchManifest) and serves the
	// swarm-learned corrections.
	me := vps[0]
	freeRider := inano.FromAtlas(base)
	meanErr := func(c *inano.Client) float64 {
		sum, cnt := 0.0, 0
		for _, p := range peers {
			truth, ok := w.TrueRTT(0, me, p)
			if !ok {
				continue
			}
			info, _ := c.Snapshot().Query(context.Background(), me, p) // the background context never ends
			sum += feedback.RelErr(info.RTTMS, truth, info.Found)
			cnt++
		}
		return sum / float64(cnt)
	}
	before := meanErr(freeRider)

	var wire bytes.Buffer
	if err := delta.Encode(&wire); err != nil {
		panic(err)
	}
	if err := freeRider.ApplyDelta(&wire); err != nil {
		panic(err)
	}
	after := meanErr(freeRider)
	fmt.Printf("non-reporting client: mean RTT error %.3f -> %.3f\n", before, after)
}
