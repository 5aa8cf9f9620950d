package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"slices"

	inano "inano"
	"inano/internal/api"
	"inano/internal/feedback"
	"inano/internal/netsim"
)

// The measurement feedback loop's serving surface: clients report
// observed-vs-predicted performance over /v1/feedback, the daemon
// aggregates the error per destination cluster, and a background
// corrector (RunCorrector) spends a bounded traceroute budget on the
// worst mispredictions. /v1/relay exposes relay selection — the
// application that most wants fresh loss/latency estimates — over the
// same serving client.

// feedbackResponse summarizes one /v1/feedback report.
type feedbackResponse struct {
	// Accepted observations entered the error tracker (or were scored
	// untracked).
	Accepted int `json:"accepted"`
	// RateLimited observations were dropped by the per-source token
	// bucket; retry after backing off.
	RateLimited int `json:"rate_limited"`
	// Untracked observations were accepted but name destinations unknown
	// to the serving atlas, so no corrective probe can help them.
	Untracked int `json:"untracked"`
	// Error reports a malformed report line; observations before it were
	// still processed.
	Error string `json:"error,omitempty"`
	Day   int    `json:"day"`
}

// maxFeedbackBody caps one /v1/feedback request body: ParseReport bounds
// lines and observation counts, and this bounds the whole body, so a
// hostile stream cannot hold the handler forever.
const maxFeedbackBody = int64(feedback.MaxObservations) * feedback.MaxLineBytes

// handleFeedback ingests an NDJSON observation report: one
// {"src","dst","rtt_ms"} line per observed flow. Ingestion is token-bucket
// rate-limited per reporting source (the connecting peer): each source
// holds Config.FeedbackBurst tokens refilled at Config.FeedbackRate
// observations/second, and a report finding fewer tokens than lines is
// accepted only up to the grant. A malformed line ends parsing; the valid
// prefix is still accounted.
func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) error {
	rp, rf := api.ReadReport(w, r, nil, maxFeedbackBody, feedback.ParseReport)
	if rf != nil {
		return rf.Write(w)
	}
	return serveReport(s, w, r, s.fbLimiter, rp, func(ctx context.Context, granted []feedback.Observation, limited int) any {
		// One pinned snapshot scores and labels the whole report, so a
		// roll mid-report cannot score some lines against a day the
		// answer does not name.
		snap := s.c.Snapshot()
		resp := feedbackResponse{RateLimited: limited, Error: rp.Err, Day: snap.Day()}
		for _, o := range granted {
			// Scoring may build trees for cold destinations; the request
			// deadline bounds that work so one report cannot stall the
			// handler indefinitely.
			sample, err := s.c.ObserveRTT(ctx, snap, netsim.PrefixOf(o.Src), netsim.PrefixOf(o.Dst), o.RTTMS)
			if err != nil {
				resp.Error = fmt.Sprintf("aborted after %d observations: %v", resp.Accepted, err)
				break
			}
			resp.Accepted++
			s.fbError.Observe(sample.Err)
			if !sample.Tracked {
				resp.Untracked++
			}
		}
		s.fbObservations.Add(uint64(resp.Accepted))
		s.fbRateLimited.Add(uint64(resp.RateLimited))
		return resp
	})
}

// serveReport is the tail both report endpoints share: it grants the
// report's lines from the reporting peer's bucket in lim, has ingest take
// the granted ones under the request's deadline and say how many were
// refused, and answers with what ingest returns — 429 when the bucket
// granted none of the lines.
func serveReport[T any](s *Server, w http.ResponseWriter, r *http.Request, lim *tokenBuckets, rp api.Report[T], ingest func(ctx context.Context, granted []T, limited int) any) error {
	ctx, cancel := s.requestContext(r, rp.Deadline)
	defer cancel()
	granted := lim.take(sourceKey(r), len(rp.Lines))
	resp := ingest(ctx, rp.Lines[:granted], len(rp.Lines)-granted)
	if granted == 0 && len(rp.Lines) > 0 {
		return api.WriteJSON(w, http.StatusTooManyRequests, resp)
	}
	return api.WriteJSON(w, http.StatusOK, resp)
}

// sourceKey identifies the reporting peer for rate limiting: the
// connection's remote host (not the report's src field, which an abuser
// could rotate freely).
func sourceKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// relayResponse is the /v1/relay answer.
type relayResponse struct {
	Src        string  `json:"src"`
	Dst        string  `json:"dst"`
	Found      bool    `json:"found"`
	Relay      string  `json:"relay,omitempty"`
	RTTMS      float64 `json:"rtt_ms,omitempty"`
	LossRate   float64 `json:"loss_rate,omitempty"`
	MOS        float64 `json:"mos,omitempty"`
	Candidates int     `json:"candidates"`
	Day        int     `json:"day"`
}

// handleRelay picks a VoIP relay for src->dst out of ?relays= with the
// paper's §7.2 strategy: among the ?k= (default 10) candidates minimizing
// predicted end-to-end loss, the one minimizing latency (api.ReadRelay
// reads the request). ?deadline_ms= bounds the underlying batch.
func (s *Server) handleRelay(w http.ResponseWriter, r *http.Request) error {
	req, rf := api.ReadRelay(r)
	if rf != nil {
		return rf.Write(w)
	}
	relays := make([]inano.Prefix, len(req.Relays))
	for i, ip := range req.Relays {
		relays[i] = netsim.PrefixOf(ip)
	}
	ctx, cancel := s.requestContext(r, req.Deadline)
	defer cancel()
	// The snapshot that picks the relay labels the answer with its day.
	snap := s.c.Snapshot()
	choice, ok, err := snap.BestRelay(ctx, netsim.PrefixOf(req.Src), netsim.PrefixOf(req.Dst), relays, req.K)
	if err != nil {
		return api.Refuse(http.StatusGatewayTimeout, "relay selection aborted: %v", err).Write(w)
	}
	resp := relayResponse{
		Src:        req.Src.String(),
		Dst:        req.Dst.String(),
		Found:      ok,
		Candidates: len(relays),
		Day:        snap.Day(),
	}
	if ok {
		resp.RTTMS = choice.RTTMS
		resp.LossRate = choice.LossRate
		resp.MOS = choice.MOS
		// Echo the candidate whose prefix won: an address the caller sent.
		if i := slices.Index(relays, choice.Relay); i >= 0 {
			resp.Relay = req.Relays[i].String()
		}
	}
	return api.WriteJSON(w, http.StatusOK, resp)
}

// RunCorrector runs the background corrective loop over the serving
// client until ctx is done: each round the worst-mispredicted tracked
// destinations (up to cfg.Budget) are re-measured through prober and the
// results merged into the atlas copy-on-write. Round accounting feeds the
// corrective metrics. Run it in a goroutine alongside the HTTP server.
func (s *Server) RunCorrector(ctx context.Context, prober feedback.Prober, cfg feedback.Config) {
	cor := s.c.NewCorrector(prober, cfg)
	s.cfg.Logf("inanod: corrector running: budget %d per %v", cor.Config().Budget, cor.Config().Interval)
	cor.Run(ctx, s.noteRound)
}

// noteRound folds one corrective round into the metrics.
func (s *Server) noteRound(r feedback.Round) {
	s.corrRounds.Inc()
	s.corrProbes.Add(uint64(r.Probes))
	s.corrProbeErrors.Add(uint64(r.ProbeErrors))
	s.corrMerged.Add(uint64(r.Merged))
	s.mu.Lock()
	s.lastRound = r
	s.mu.Unlock()
	if r.Probes > 0 {
		s.cfg.Logf("inanod: corrective round: %d/%d probes, %d atlas changes merged",
			r.Probes, r.Budget, r.Merged)
	}
}
