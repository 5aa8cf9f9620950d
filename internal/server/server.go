// Package server implements inanod's HTTP/JSON query API: the always-on
// serving surface over an inano.Client. One daemon answers single queries
// (/v1/query), streamed NDJSON batches with per-request deadlines
// (/v1/batch), candidate ranking (/v1/rank), and exposes liveness
// (/healthz) and one metrics registry twice: in the Prometheus text format
// (/metrics) and as a JSON object for people (/debug/stats).
//
// Serving properties:
//
//   - Batches stream: request pairs are consumed and response lines written
//     in bounded windows, so a million-pair batch never buffers in memory
//     on either side. Each stream reads one atlas snapshot pinned at
//     request start — a hot reload mid-stream never tears an answer.
//   - Concurrent single queries to the same cold destination share one
//     prediction-tree search via the engine's tree cache.
//   - Hot reload (WatchDeltaFile / WatchManifest) applies daily deltas
//     copy-on-write: in-flight requests keep their snapshot, new requests
//     see the new day.
package server

import (
	"cmp"
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	inano "inano"
	"inano/internal/api"
	"inano/internal/core"
	"inano/internal/feedback"
	"inano/internal/metrics"
	"inano/internal/netsim"
)

// Config configures a Server.
type Config struct {
	// Client answers the queries. Required.
	Client *inano.Client
	// DefaultDeadline bounds requests that don't set deadline_ms (0 = none).
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines (0 = uncapped).
	MaxDeadline time.Duration
	// StreamWindow is the pairs-per-flush window of /v1/batch
	// (0 = core.DefaultStreamWindow). Smaller windows lower first-result
	// latency; larger ones amortize fan-out.
	StreamWindow int
	// FeedbackRate is the per-source token refill rate of /v1/feedback in
	// observations/second (0 = default 64; negative = unlimited).
	FeedbackRate float64
	// FeedbackBurst is the per-source bucket capacity (0 = default 256).
	FeedbackBurst int
	// Aggregator enables POST /v1/observations (upstream observation
	// sharing): validated reports feed it, and RunObservationSnapshots
	// periodically cuts its state to disk for the build pipeline. Nil
	// disables the endpoint (501).
	Aggregator *feedback.Aggregator
	// ObservationRate is the per-source token refill rate of
	// /v1/observations in observations/second (0 = default 8; negative =
	// unlimited). Deliberately tighter than FeedbackRate: observations
	// mutate the global build, feedback only local scheduling.
	ObservationRate float64
	// ObservationBurst is the per-source bucket capacity (0 = default 64).
	ObservationBurst int
	// PeerID names this replica in a serving cluster: echoed in /healthz
	// and as an X-Inano-Peer response header so routers and harnesses can
	// tell replicas apart. Empty = standalone (no header).
	PeerID string
	// Logf logs serving events (nil = silent).
	Logf func(format string, args ...any)
}

// Server is the daemon's HTTP surface. Create with New, mount Handler.
type Server struct {
	c       *inano.Client
	cfg     Config
	started time.Time
	front   *api.Frame

	pairsTotal   *metrics.Counter
	reloads      *metrics.Counter
	reloadErrors *metrics.Counter
	lastReload   *metrics.Gauge

	// Feedback-loop instrumentation.
	fbLimiter       *tokenBuckets
	fbObservations  *metrics.Counter
	fbRateLimited   *metrics.Counter
	fbError         *metrics.Histogram
	corrRounds      *metrics.Counter
	corrProbes      *metrics.Counter
	corrProbeErrors *metrics.Counter
	corrMerged      *metrics.Counter

	// Upstream observation ingest instrumentation.
	obsLimiter     *tokenBuckets
	obsAccepted    *metrics.Counter
	obsPaths       *metrics.Counter
	obsPathRejects *metrics.Counter
	obsUnknown     *metrics.Counter
	obsRateLimited *metrics.Counter
	obsSnapshots   *metrics.Counter

	mu        sync.Mutex
	lastRound feedback.Round

	// draining flips once (StartDraining) when the replica is being
	// rotated out: /healthz answers 503 so routers re-shard away, new
	// serving requests are refused with 503 (the router retries them on
	// another replica), and in-flight ones run to completion.
	draining atomic.Bool
}

// New builds a server over cfg.Client and registers its metrics.
func New(cfg Config) *Server {
	if cfg.Client == nil {
		panic("server: Config.Client is required")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.StreamWindow <= 0 {
		cfg.StreamWindow = core.DefaultStreamWindow
	}
	reg := metrics.NewRegistry()
	s := &Server{
		c:          cfg.Client,
		cfg:        cfg,
		started:    time.Now(),
		fbLimiter:  newTokenBuckets(cmp.Or(cfg.FeedbackRate, 64), cmp.Or(max(cfg.FeedbackBurst, 0), 256)),
		obsLimiter: newTokenBuckets(cmp.Or(cfg.ObservationRate, 8), cmp.Or(max(cfg.ObservationBurst, 0), 64)),
	}
	reg.NewGaugeFunc("inanod_uptime_seconds", "Seconds since the server was built.", "",
		func() float64 { return time.Since(s.started).Seconds() })
	s.front = api.NewFrame(reg, "inanod_http", "inanod", cfg.Logf,
		s.serving("/v1/query", s.handleQuery),
		s.serving("/v1/batch", s.handleBatch),
		s.serving("/v1/rank", s.handleRank),
		s.serving("/v1/feedback", s.handleFeedback),
		s.serving("/v1/relay", s.handleRelay),
		s.serving("/v1/observations", s.handleObservations),
		api.Endpoint{Path: "/healthz", Serve: s.handleHealthz})
	s.pairsTotal = reg.NewCounter("inanod_batch_pairs_streamed_total",
		"Batch pairs answered over /v1/batch.", "")
	s.reloads = reg.NewCounter("inanod_atlas_reloads_total",
		"Atlas deltas hot-applied.", "")
	s.reloadErrors = reg.NewCounter("inanod_atlas_reload_errors_total",
		"Failed atlas reload attempts.", "")
	s.lastReload = reg.NewGauge("inanod_atlas_last_reload_timestamp_seconds",
		"Unix time of the last successful reload (0 = never).", "")

	// Feedback loop: error distribution (the quantile source), ingestion
	// accounting, and the corrective budget's spend.
	s.fbObservations = reg.NewCounter("inanod_feedback_observations_total",
		"Observations accepted over /v1/feedback.", "")
	s.fbRateLimited = reg.NewCounter("inanod_feedback_rate_limited_total",
		"Observations dropped by the per-source rate limit.", "")
	s.fbError = reg.NewHistogram("inanod_feedback_prediction_error",
		"Relative |observed-predicted|/observed RTT error of reported observations.",
		"", metrics.DefErrorBuckets)
	s.corrRounds = reg.NewCounter("inanod_corrective_rounds_total",
		"Corrective scheduler rounds executed.", "")
	s.corrProbes = reg.NewCounter("inanod_corrective_probes_issued_total",
		"Corrective traceroutes issued.", "")
	s.corrProbeErrors = reg.NewCounter("inanod_corrective_probe_errors_total",
		"Corrective traceroutes that failed.", "")
	s.corrMerged = reg.NewCounter("inanod_corrective_changes_merged_total",
		"Atlas changes merged from corrective traceroutes.", "")

	// Upstream observation ingest: what clients share toward the next
	// build, and the aggregate's size.
	s.obsAccepted = reg.NewCounter("inanod_observations_accepted_total",
		"Upstream observations accepted over /v1/observations.", "")
	s.obsPaths = reg.NewCounter("inanod_observation_paths_total",
		"Clusterized hop-path tails accepted into the structural aggregate.", "")
	s.obsPathRejects = reg.NewCounter("inanod_observation_path_rejects_total",
		"Uploaded hop lists rejected at clusterization (unmappable or looping).", "")
	s.obsUnknown = reg.NewCounter("inanod_observations_unknown_total",
		"Upstream observations the serving atlas could not place.", "")
	s.obsRateLimited = reg.NewCounter("inanod_observations_rate_limited_total",
		"Upstream observations dropped by the per-source rate limit.", "")
	s.obsSnapshots = reg.NewCounter("inanod_observation_snapshots_total",
		"Aggregator snapshots written to disk.", "")
	reg.NewGaugeFunc("inanod_observation_sources",
		"Reporting peers holding a /v1/observations rate-limit bucket.", "",
		func() float64 { return float64(s.obsLimiter.len()) })
	reg.NewCounterFunc("inanod_observation_sources_evicted_total",
		"/v1/observations rate-limit buckets evicted to keep the table bounded.", "",
		func() float64 { return float64(s.obsLimiter.evictions()) })
	// A source several series show is read once a render (metrics.Sampled),
	// so they show one instant.
	if cfg.Aggregator != nil {
		agg := metrics.Sampled(reg, cfg.Aggregator.Stats)
		reg.NewGaugeFunc("inanod_observation_prefixes",
			"Destination prefixes in the upstream-observation aggregate.", "",
			func() float64 { return float64(agg().Prefixes) })
		reg.NewGaugeFunc("inanod_observation_reporters",
			"Reporter slots in use across aggregated prefixes.", "",
			func() float64 { return float64(agg().Reporters) })
		reg.NewGaugeFunc("inanod_observation_path_slots",
			"Reporter slots holding a clusterized hop path.", "",
			func() float64 { return float64(agg().Paths) })
		reg.NewCounterFunc("inanod_observation_evicted_prefixes_total",
			"Prefixes the aggregate dropped to stay within its bound.", "",
			func() float64 { return float64(agg().EvictedPrefixes) })
	}

	round := metrics.Sampled(reg, func() feedback.Round {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.lastRound
	})
	lastRound := func(v func(feedback.Round) float64) func() float64 {
		return func() float64 { return v(round()) }
	}
	reg.NewGaugeFunc("inanod_corrective_budget_utilization",
		"Fraction of the corrective budget spent in the last round.", "",
		lastRound(feedback.Round.Utilization))
	reg.NewGaugeFunc("inanod_corrective_last_round_budget",
		"Probe budget of the last corrective round.", "",
		lastRound(func(r feedback.Round) float64 { return float64(r.Budget) }))
	reg.NewGaugeFunc("inanod_corrective_last_round_probes",
		"Corrective traceroutes issued in the last round.", "",
		lastRound(func(r feedback.Round) float64 { return float64(r.Probes) }))
	reg.NewGaugeFunc("inanod_corrective_last_round_merged",
		"Atlas changes merged from the last round's traceroutes.", "",
		lastRound(func(r feedback.Round) float64 { return float64(r.Merged) }))
	reg.NewGaugeFunc("inanod_feedback_sources",
		"Reporting peers holding a /v1/feedback rate-limit bucket.", "",
		func() float64 { return float64(s.fbLimiter.len()) })
	reg.NewCounterFunc("inanod_feedback_sources_evicted_total",
		"/v1/feedback rate-limit buckets evicted to keep the table bounded.", "",
		func() float64 { return float64(s.fbLimiter.evictions()) })
	fb := metrics.Sampled(reg, s.c.FeedbackStats)
	reg.NewGaugeFunc("inanod_feedback_tracked_destinations",
		"Destination clusters currently tracked by the error tracker.", "",
		func() float64 { return float64(fb().Entries) })
	reg.NewCounterFunc("inanod_feedback_tracked_samples_total",
		"Observations folded into the error tracker.", "",
		func() float64 { return float64(fb().TotalSamples) })
	reg.NewCounterFunc("inanod_feedback_destinations_evicted_total",
		"Destination clusters the error tracker dropped to stay within its bound.", "",
		func() float64 { return float64(fb().Evicted) })
	reg.NewGaugeFunc("inanod_feedback_mean_error",
		"Mean EWMA relative RTT error over tracked destinations.", "",
		func() float64 { return fb().MeanErr })
	reg.NewGaugeFunc("inanod_feedback_worst_error",
		"Largest EWMA relative RTT error over tracked destinations.", "",
		func() float64 { return fb().WorstErr })

	// Engine-owned values are sampled at scrape time. The tree cache resets
	// when a reload swaps the engine, so these are gauges, not counters.
	cache := metrics.Sampled(reg, s.c.CacheStats)
	reg.NewGaugeFunc("inanod_tree_cache_hits", "Tree cache hits (resets on reload).", "",
		func() float64 { return float64(cache().Hits) })
	reg.NewGaugeFunc("inanod_tree_cache_misses", "Tree cache misses (resets on reload).", "",
		func() float64 { return float64(cache().Misses) })
	reg.NewGaugeFunc("inanod_tree_cache_builds", "Dijkstra tree searches started, the warmer's behind a reload included (resets on reload).", "",
		func() float64 { return float64(cache().Builds) })
	reg.NewGaugeFunc("inanod_tree_cache_warmed", "Trees rebuilt behind the last reload from those resident before it (resets on reload).", "",
		func() float64 { return float64(cache().Warmed) })
	reg.NewGaugeFunc("inanod_tree_cache_warm_hits", "Warmed trees a lookup has since asked for (resets on reload); over inanod_tree_cache_warmed, whether the rebuild was worth it.", "",
		func() float64 { return float64(cache().WarmHits) })
	reg.NewGaugeFunc("inanod_tree_cache_build_seconds",
		"Wall time spent in Dijkstra tree builds (resets on reload); over inanod_tree_cache_builds, the price of one cold destination.", "",
		func() float64 { return time.Duration(cache().BuildNS).Seconds() })
	reg.NewGaugeFunc("inanod_tree_cache_resident", "Prediction trees currently cached.", "",
		func() float64 { return float64(cache().Len) })
	reg.NewGaugeFunc("inanod_tree_cache_suspended", "Resident trees whose search stopped short of the end and kept its frontier to resume from.", "",
		func() float64 { return float64(cache().Suspended) })
	reg.NewGaugeFunc("inanod_tree_cache_bytes", "Bytes those trees retain: resident times the size of one tree, computed, not sampled.", "",
		func() float64 { return float64(cache().Bytes) })
	reg.NewGaugeFunc("inanod_tree_cache_hit_ratio", "Hits / lookups of the tree cache.", "",
		func() float64 {
			st := cache()
			if st.Hits+st.Misses == 0 {
				return 0
			}
			return float64(st.Hits) / float64(st.Hits+st.Misses)
		})
	atlas := metrics.Sampled(reg, func() inano.AtlasStats { return s.c.Snapshot().AtlasStats() })
	reg.NewGaugeFunc("inanod_atlas_day", "Measurement day of the serving atlas.", "",
		func() float64 { return float64(atlas().Day) })
	reg.NewGaugeFunc("inanod_atlas_clusters", "Clusters in the serving atlas.", "",
		func() float64 { return float64(atlas().Clusters) })
	reg.NewGaugeFunc("inanod_atlas_links", "Links in the serving atlas.", "",
		func() float64 { return float64(atlas().Links) })
	reg.NewGaugeFunc("inanod_atlas_prefixes", "Prefixes the serving atlas attaches to a cluster.", "",
		func() float64 { return float64(atlas().Prefixes) })
	// The last applied delta, read at scrape time; every value is 0 before
	// the first.
	roll := metrics.Sampled(reg, func() inano.RollStats {
		st, _ := s.c.LastRoll()
		return st
	})
	lastRoll := func(v func(inano.RollStats) float64) func() float64 {
		return func() float64 { return v(roll()) }
	}
	reg.NewGaugeFunc("inanod_reload_seconds",
		"Time the last applied delta took to merge into the serving atlas (0 = none applied).", "",
		lastRoll(func(st inano.RollStats) float64 { return st.Duration.Seconds() }))
	reg.NewGaugeFunc("inanod_reload_links_changed",
		"Links the last applied delta added, removed or re-tagged.", "",
		lastRoll(func(st inano.RollStats) float64 { return float64(st.LinksChanged()) }))
	reg.NewGaugeFunc("inanod_reload_from_day",
		"Day the last applied delta rolled from (0 = none applied).", "",
		lastRoll(func(st inano.RollStats) float64 { return float64(st.FromDay) }))
	for _, ch := range rollChanges {
		reg.NewGaugeFunc("inanod_reload_changes",
			"What the last applied delta changed, by kind of change (0 = none applied).", `change="`+ch.name+`"`,
			lastRoll(func(st inano.RollStats) float64 { return float64(ch.count(st)) }))
	}
	return s
}

// rollChanges lists the counts of a roll that inanod_reload_changes
// exports, one series each.
var rollChanges = []struct {
	name  string
	count func(inano.RollStats) int
}{
	{"links_added", func(st inano.RollStats) int { return st.LinksAdded }},
	{"links_removed", func(st inano.RollStats) int { return st.LinksRemoved }},
	{"links_retagged", func(st inano.RollStats) int { return st.LinksRetagged }},
	{"loss_set", func(st inano.RollStats) int { return st.LossSet }},
	{"loss_cleared", func(st inano.RollStats) int { return st.LossCleared }},
	{"tuples_added", func(st inano.RollStats) int { return st.TuplesAdded }},
	{"tuples_removed", func(st inano.RollStats) int { return st.TuplesRemoved }},
	{"prefixes_rehomed", func(st inano.RollStats) int { return st.PrefixesRehomed }},
	{"clusters_added", func(st inano.RollStats) int { return st.ClustersAdded }},
	{"local_decayed", func(st inano.RollStats) int { return st.LocalDecayed }},
	{"local_dropped", func(st inano.RollStats) int { return st.LocalDropped }},
}

// StartDraining moves the server into its terminal draining state:
// /healthz answers 503 "draining" (pulling this replica out of any
// router's ring on the next health pass), new serving requests are
// refused with 503, and in-flight requests finish normally. There is no
// way back — draining exists for rolling restarts, where the process
// exits once InFlight reaches zero.
func (s *Server) StartDraining() {
	if s.draining.CompareAndSwap(false, true) {
		s.cfg.Logf("inanod: draining: refusing new requests, %d in flight", s.InFlight())
	}
}

// InFlight returns the number of requests currently being served.
func (s *Server) InFlight() int64 { return s.front.InFlight() }

// serving mounts one endpoint of the serving surface, which a draining
// replica refuses. Health, metrics and stats keep answering so operators
// and routers can watch the drain.
func (s *Server) serving(path string, h func(http.ResponseWriter, *http.Request) error) api.Endpoint {
	return api.Endpoint{Path: path, Serve: func(w http.ResponseWriter, r *http.Request) error {
		if s.draining.Load() {
			// Refused, not dropped: a router retries the request on the
			// ring's next replica, so a rolling restart loses no queries.
			w.Header().Set("X-Inano-Draining", "1")
			return api.Refuse(http.StatusServiceUnavailable, "draining").Write(w)
		}
		return h(w, r)
	}}
}

// Handler returns the daemon's routing handler.
func (s *Server) Handler() http.Handler {
	if s.cfg.PeerID == "" {
		return s.front
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Inano-Peer", s.cfg.PeerID)
		s.front.ServeHTTP(w, r)
	})
}

// requestContext is the request's context under its ?deadline_ms= d and
// the server's DefaultDeadline and MaxDeadline.
func (s *Server) requestContext(r *http.Request, d api.Deadline) (context.Context, context.CancelFunc) {
	return d.Context(r.Context(), s.cfg.DefaultDeadline, s.cfg.MaxDeadline)
}

// --- endpoints ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	body := map[string]any{
		"status":   "ok",
		"day":      s.c.Snapshot().Day(),
		"uptime_s": int64(time.Since(s.started).Seconds()),
	}
	if s.cfg.PeerID != "" {
		body["peer"] = s.cfg.PeerID
	}
	if s.draining.Load() {
		body["status"] = "draining"
		body["inflight"] = s.InFlight()
		return api.WriteJSON(w, http.StatusServiceUnavailable, body)
	}
	return api.WriteJSON(w, http.StatusOK, body)
}

// linePool holds the buffers /v1/query answers are encoded into.
var linePool = sync.Pool{New: func() any { return new([]byte) }}

// handleQuery answers one (src, dst) query; a POST line's deadline_ms
// bounds it inside the request's own deadline. Concurrent queries to one
// cold destination share a tree search (the engine's cache). The answer is
// a batch answer line plus the two AS paths, written in one piece.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) error {
	q, rf := api.ReadQuery(w, r)
	if rf != nil {
		return rf.Write(w)
	}
	ctx, cancel := s.requestContext(r, q.Deadline)
	defer cancel()
	if q.Pair.DeadlineMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(q.Pair.DeadlineMS)*time.Millisecond)
		defer cancel()
	}
	// One pinned snapshot answers and labels the result, so the reported
	// day always matches the atlas that produced the numbers.
	snap := s.c.Snapshot()
	l := q.Pair
	info, err := snap.Query(ctx, netsim.PrefixOf(l.SrcIP), netsim.PrefixOf(l.DstIP))
	if err != nil {
		return api.Refuse(http.StatusGatewayTimeout, "query aborted: %v", err).Write(w)
	}
	a := answerLine{srcIP: l.SrcIP, dstIP: l.DstIP}
	a.answer(&info, false)
	buf := linePool.Get().(*[]byte)
	defer linePool.Put(buf)
	*buf = appendResultLine((*buf)[:0], &a, snap.Day(), info.Fwd.ASPath, info.Rev.ASPath)
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(*buf); err != nil {
		return fmt.Errorf("writing query response: %w", err)
	}
	return nil
}

// handleBatch streams answers for an NDJSON stream of {"src","dst"} pairs.
// The response is NDJSON too, one result line per request line, in request
// order, flushed every window so results reach the client while the request
// body is still being produced. The whole stream reads one atlas snapshot.
//
// The stream runs in two stages over two window slots (api.Stage): this
// goroutine reads, parses and answers (StreamBatch.Run) window N+1 into one
// slot while the stage encodes and writes window N from the other. Memory
// is two windows, of lines and of encoded answers, whatever the batch size.
//
// A line's own "deadline_ms" bounds its answer's latency from the line's
// receipt, window buffering included: a pair past it comes back as a
// failure line (src/dst echoed, "found":false, "error":"deadline_ms
// exceeded") and the stream goes on.
//
// A malformed line or an expired request deadline ends the stream with the
// terminal line (api.Stage.End); a response the client no longer
// takes ends it at the reader's next window.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) error {
	b, rf := api.ReadBatch(w, r, s.cfg.StreamWindow)
	if rf != nil {
		return rf.Write(w)
	}
	defer b.Close()
	ctx, cancel := s.requestContext(r, b.Deadline)
	defer cancel()

	// One pinned snapshot serves the whole stream and labels every line;
	// prediction trees built for one window stay cached for the next. The
	// one reusable runner keeps the stream's per-window buffers alive across
	// windows (and skips AS-path derivation: batch lines never serialize
	// them), so steady-state windows allocate nothing.
	snap := s.c.Snapshot()
	sb := snap.StreamBatch(true)
	var reqs []core.PairReq
	st, slot := api.Start(w, b.RC, func(slot *batchSlot) ([]byte, int, error) {
		slot.buf = appendWindow(slot.buf[:0], slot.lines, snap.Day())
		return slot.buf, len(slot.lines), nil
	})
	// A panic on either goroutine must not leave the stage behind, nor the
	// lines that went out uncounted.
	defer func() {
		st.Finish()
		s.pairsTotal.Add(uint64(st.Written))
	}()
	var streamErr error // the request's context ended: the terminal line says so
	// runWindow answers the buffered window in one per-pair-deadline batch,
	// copies the answers out of the runner and passes the slot to the stage.
	// It reports whether the stream goes on: not after a request-level
	// failure (ctx expiry: streamErr), not once the stage has stopped.
	runWindow := func() bool {
		if len(reqs) == 0 {
			return true
		}
		infos, expired, err := sb.Run(ctx, reqs)
		if err != nil {
			streamErr = err
			return false
		}
		copyAnswers(slot.lines, infos, expired)
		reqs = reqs[:0]
		if slot = st.Exchange(slot); slot == nil {
			return false
		}
		slot.lines = slot.lines[:0]
		return true
	}

	live := true
	for live {
		_, l, ok := b.Next()
		if !ok {
			break
		}
		pr := inano.PairOf(l.SrcIP, l.DstIP)
		if l.DeadlineMS > 0 {
			pr.Deadline = time.Now().Add(time.Duration(l.DeadlineMS) * time.Millisecond)
		}
		reqs = append(reqs, pr)
		slot.lines = append(slot.lines, answerLine{srcIP: l.SrcIP, dstIP: l.DstIP})
		if len(reqs) >= b.Window {
			live = runWindow()
		}
	}
	if live {
		runWindow()
	}
	return st.End(b.Err(), streamErr)
}

type rankedCandidate struct {
	IP         string  `json:"ip"`
	Found      bool    `json:"found"`
	RTTMS      float64 `json:"rtt_ms,omitempty"`
	LossRate   float64 `json:"loss_rate,omitempty"`
	TransferMS float64 `json:"transfer_ms,omitempty"`
}

// handleRank orders the candidates by inano.Snapshot.Rank.
func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) error {
	req, rf := api.ReadRank(w, r)
	if rf != nil {
		return rf.Write(w)
	}
	dsts := make([]netsim.Prefix, len(req.Candidates))
	for i, ip := range req.Candidates {
		dsts[i] = netsim.PrefixOf(ip)
	}
	ctx, cancel := s.requestContext(r, req.Deadline)
	defer cancel()
	snap := s.c.Snapshot()
	ranked, err := snap.Rank(ctx, netsim.PrefixOf(req.Src), dsts, req.SizeBytes)
	if err != nil {
		return api.Refuse(http.StatusGatewayTimeout, "rank aborted: %v", err).Write(w)
	}
	out := make([]rankedCandidate, len(ranked))
	for i, rk := range ranked {
		out[i] = rankedCandidate{IP: req.Candidates[rk.Index].String(), Found: rk.Found, RTTMS: rk.RTTMS, LossRate: rk.LossRate, TransferMS: rk.TransferMS}
	}
	return api.WriteJSON(w, http.StatusOK, map[string]any{"src": req.Src.String(), "day": snap.Day(), "ranked": out})
}
