package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"

	inano "inano"
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

// handleFeedback ingests an NDJSON observation report: one
// {"src","dst","rtt_ms"} line per observed flow. Ingestion is token-bucket
// rate-limited per reporting source (the connecting peer): each source
// holds Config.FeedbackBurst tokens refilled at Config.FeedbackRate
// observations/second, and a report finding fewer tokens than lines is
// accepted only up to the grant. A malformed line ends parsing; the valid
// prefix is still accounted.
func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) error {
	if r.Method != http.MethodPost {
		return httpError(w, http.StatusMethodNotAllowed, "use POST")
	}
	// ParseReport bounds lines and observation counts; the byte cap below
	// bounds the whole body so a hostile stream cannot hold the handler
	// forever.
	body := http.MaxBytesReader(w, r.Body, int64(feedback.MaxObservations)*feedback.MaxLineBytes)
	obs, parseErr := feedback.ParseReport(body)
	if parseErr != nil && len(obs) == 0 {
		return httpError(w, http.StatusBadRequest, "%v", parseErr)
	}
	ctx, cancel, err := s.requestContext(r, r.URL.Query())
	if err != nil {
		return httpError(w, http.StatusBadRequest, "%v", err)
	}
	defer cancel()
	granted := s.fbLimiter.take(sourceKey(r), len(obs))
	resp := feedbackResponse{
		RateLimited: len(obs) - granted,
		Day:         s.c.Snapshot().Day(),
	}
	if parseErr != nil {
		resp.Error = parseErr.Error()
	}
	for _, o := range obs[:granted] {
		// Scoring may build trees for cold destinations; the request
		// deadline bounds that work so one report cannot stall the
		// handler indefinitely.
		sample, err := s.c.ObserveRTT(ctx, netsim.PrefixOf(o.Src), netsim.PrefixOf(o.Dst), o.RTTMS)
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
	if granted == 0 && resp.RateLimited > 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		return writeJSONBody(w, resp)
	}
	return writeJSON(w, resp)
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

// handleRelay picks a VoIP relay for src->dst out of ?relays= (comma-
// separated candidate IPs) with the paper's §7.2 strategy: among the ?k=
// (default 10) candidates minimizing predicted end-to-end loss, the one
// minimizing latency. GET with query parameters; ?deadline_ms= bounds the
// underlying batch.
func (s *Server) handleRelay(w http.ResponseWriter, r *http.Request) error {
	if r.Method != http.MethodGet {
		return httpError(w, http.StatusMethodNotAllowed, "use GET")
	}
	q := r.URL.Query()
	src, err := netsim.ParseIPv4(q.Get("src"))
	if err != nil {
		return httpError(w, http.StatusBadRequest, "src: %v", err)
	}
	dst, err := netsim.ParseIPv4(q.Get("dst"))
	if err != nil {
		return httpError(w, http.StatusBadRequest, "dst: %v", err)
	}
	rawRelays := strings.Split(q.Get("relays"), ",")
	var ips []netsim.IP
	var relays []inano.Prefix
	for _, raw := range rawRelays {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		ip, err := netsim.ParseIPv4(raw)
		if err != nil {
			return httpError(w, http.StatusBadRequest, "relays: %v", err)
		}
		ips = append(ips, ip)
		relays = append(relays, netsim.PrefixOf(ip))
	}
	if len(relays) == 0 {
		return httpError(w, http.StatusBadRequest, "no relay candidates")
	}
	k := 0
	if raw := q.Get("k"); raw != "" {
		if k, err = strconv.Atoi(raw); err != nil || k <= 0 {
			return httpError(w, http.StatusBadRequest, "bad k %q", raw)
		}
	}
	ctx, cancel, err := s.requestContext(r, q)
	if err != nil {
		return httpError(w, http.StatusBadRequest, "%v", err)
	}
	defer cancel()
	// The snapshot that picks the relay labels the answer with its day.
	snap := s.c.Snapshot()
	choice, ok, err := snap.BestRelay(ctx, netsim.PrefixOf(src), netsim.PrefixOf(dst), relays, k)
	if err != nil {
		return httpError(w, http.StatusGatewayTimeout, "relay selection aborted: %v", err)
	}
	resp := relayResponse{
		Src:        src.String(),
		Dst:        dst.String(),
		Found:      ok,
		Candidates: len(relays),
		Day:        snap.Day(),
	}
	if ok {
		resp.RTTMS = choice.RTTMS
		resp.LossRate = choice.LossRate
		resp.MOS = choice.MOS
		// Echo the candidate whose prefix won, so callers get back an
		// address they sent.
		for i, p := range relays {
			if p == choice.Relay {
				resp.Relay = ips[i].String()
				break
			}
		}
	}
	return writeJSON(w, resp)
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
