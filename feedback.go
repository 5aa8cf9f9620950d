package inano

import (
	"context"
	"fmt"
	"time"

	"inano/internal/feedback"
)

// Measurement feedback loop (§4.3.1, §5): the client compares what it
// predicted against what applications actually observed, aggregates the
// error per destination cluster, and spends a small budget of corrective
// traceroutes on the worst-mispredicted destinations. See
// internal/feedback for the aggregation and scheduling machinery.

// Re-exported feedback types, so applications need no internal imports.
type (
	// FeedbackSample is the outcome of recording one observation.
	FeedbackSample = feedback.Sample
	// FeedbackStats summarizes the client's error tracker.
	FeedbackStats = feedback.Stats
	// CorrectorConfig tunes the corrective scheduler.
	CorrectorConfig = feedback.Config
	// CorrectorRound reports one corrective round.
	CorrectorRound = feedback.Round
	// Prober issues one corrective traceroute.
	Prober = feedback.Prober
	// UpstreamObservation is one corrective observation shared with the
	// build server.
	UpstreamObservation = feedback.UpstreamObservation
	// Uploader batches and ships corrective observations upstream.
	Uploader = feedback.Uploader
)

// NewUploader builds an uploader shipping this host's corrective
// observations to url, a build server's POST /v1/observations endpoint —
// the upstream half of the measurement loop (§5 both ways: the aggregate of
// everyone's corrections comes back to every peer in the next daily
// delta). Wire it into a corrector through the Observe hook:
//
//	up := inano.NewUploader(buildURL + "/v1/observations")
//	cor := client.NewCorrector(prober, inano.CorrectorConfig{Observe: up.Observe})
//	// ... periodically: up.Flush(ctx)
//
// Sharing is strictly opt-in: a client that never constructs an uploader
// shares nothing. It holds up to 1024 observations (the oldest dropped
// first), ships at most 256 a POST, and tries a POST three times, 500 ms
// and then 1 s apart.
func NewUploader(url string) *Uploader { return feedback.NewUploader(url) }

// ObserveRTT reports an application-observed round-trip time for traffic
// from src to dst and returns how it compares with snap's prediction (a
// snapshot of c; a caller scoring many observations pins one for all, so
// that a roll cannot score some against another day). The error is
// attributed to dst's attachment cluster in the client's error tracker,
// feeding the corrective scheduler; observations for destinations unknown
// to the atlas are scored (Predicted=false, Err=1) but untracked, since a
// corrective traceroute could not patch them anyway. Scoring may build prediction trees for a
// cold destination, and ctx bounds that work (a serving daemon must not
// burn unbounded CPU on a hostile report naming thousands of cold
// destinations). On every error the observation is dropped and the sample
// names no cluster (Cluster -1): when ctx ends first, or when observedMS
// is NaN, infinite, not positive or over 60 s, which is no measurement.
func (c *Client) ObserveRTT(ctx context.Context, snap Snapshot, src, dst Prefix, observedMS float64) (FeedbackSample, error) {
	if !feedback.ValidRTT(observedMS) {
		return FeedbackSample{Cluster: -1}, fmt.Errorf("inano: observed RTT %v ms is not in (0, %d]", observedMS, feedback.MaxObservedRTTMS)
	}
	info, err := snap.Query(ctx, src, dst)
	if err != nil {
		return FeedbackSample{Cluster: -1}, err
	}
	cluster, ok := snap.AttachmentCluster(dst)
	if !ok {
		cluster = -1
	}
	return c.tracker.Record(cluster, src, dst, info.RTTMS, observedMS, info.Found, time.Now()), nil
}

// FeedbackStats summarizes the client's tracked prediction error.
func (c *Client) FeedbackStats() FeedbackStats { return c.tracker.Stats() }

// NewCorrector wires a corrective scheduler over this client: worst
// tracked destinations -> prober traceroutes -> AddTraceroutes (atlas
// patched copy-on-write, so queries in flight are never torn). Drive it
// with RunOnce for one round or Run for the background loop:
//
//	cor := client.NewCorrector(prober, inano.CorrectorConfig{Budget: 8})
//	go cor.Run(ctx, nil)
func (c *Client) NewCorrector(p Prober, cfg CorrectorConfig) *feedback.Corrector {
	if cfg.Predict == nil {
		cfg.Predict = func(src, dst Prefix) (float64, bool) {
			info, _ := c.Snapshot().Query(context.Background(), src, dst) // the background context never ends
			return info.RTTMS, info.Found
		}
	}
	return feedback.NewCorrector(c.tracker, p, func(trs []feedback.Traceroute) int {
		return c.AddTraceroutes(trs)
	}, cfg)
}
