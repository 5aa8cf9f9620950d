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
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	inano "inano"
	"inano/internal/batchpipe"
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
	reg     *metrics.Registry
	started time.Time

	inflight     *metrics.Gauge
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

	handlers map[string]*handlerMetrics
}

// handlerMetrics instruments one endpoint.
type handlerMetrics struct {
	requests *metrics.Counter
	errors   *metrics.Counter
	latency  *metrics.Histogram
}

// New builds a server over cfg.Client and registers its metrics.
func New(cfg Config) *Server {
	if cfg.Client == nil {
		panic("server: Config.Client is required")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	fbRate := cfg.FeedbackRate
	if fbRate == 0 {
		fbRate = 64
	}
	fbBurst := cfg.FeedbackBurst
	if fbBurst <= 0 {
		fbBurst = 256
	}
	obsRate := cfg.ObservationRate
	if obsRate == 0 {
		obsRate = 8
	}
	obsBurst := cfg.ObservationBurst
	if obsBurst <= 0 {
		obsBurst = 64
	}
	s := &Server{
		c:          cfg.Client,
		cfg:        cfg,
		reg:        metrics.NewRegistry(),
		started:    time.Now(),
		fbLimiter:  newTokenBuckets(fbRate, fbBurst),
		obsLimiter: newTokenBuckets(obsRate, obsBurst),
		handlers:   make(map[string]*handlerMetrics),
	}
	s.reg.NewGaugeFunc("inanod_uptime_seconds", "Seconds since the server was built.", "",
		func() float64 { return time.Since(s.started).Seconds() })
	s.inflight = s.reg.NewGauge("inanod_http_inflight",
		"Requests currently being served.", "")
	for _, h := range []string{"query", "batch", "rank", "feedback", "relay", "observations", "healthz", "metrics", "stats"} {
		labels := `handler="` + h + `"`
		s.handlers[h] = &handlerMetrics{
			requests: s.reg.NewCounter("inanod_http_requests_total",
				"HTTP requests served, by endpoint.", labels),
			errors: s.reg.NewCounter("inanod_http_errors_total",
				"HTTP requests that failed, by endpoint.", labels),
			latency: s.reg.NewHistogram("inanod_http_request_seconds",
				"Request latency, by endpoint.", labels, nil),
		}
	}
	s.pairsTotal = s.reg.NewCounter("inanod_batch_pairs_streamed_total",
		"Batch pairs answered over /v1/batch.", "")
	s.reloads = s.reg.NewCounter("inanod_atlas_reloads_total",
		"Atlas deltas hot-applied.", "")
	s.reloadErrors = s.reg.NewCounter("inanod_atlas_reload_errors_total",
		"Failed atlas reload attempts.", "")
	s.lastReload = s.reg.NewGauge("inanod_atlas_last_reload_timestamp_seconds",
		"Unix time of the last successful reload (0 = never).", "")

	// Feedback loop: error distribution (the quantile source), ingestion
	// accounting, and the corrective budget's spend.
	s.fbObservations = s.reg.NewCounter("inanod_feedback_observations_total",
		"Observations accepted over /v1/feedback.", "")
	s.fbRateLimited = s.reg.NewCounter("inanod_feedback_rate_limited_total",
		"Observations dropped by the per-source rate limit.", "")
	s.fbError = s.reg.NewHistogram("inanod_feedback_prediction_error",
		"Relative |observed-predicted|/observed RTT error of reported observations.",
		"", metrics.DefErrorBuckets)
	s.corrRounds = s.reg.NewCounter("inanod_corrective_rounds_total",
		"Corrective scheduler rounds executed.", "")
	s.corrProbes = s.reg.NewCounter("inanod_corrective_probes_issued_total",
		"Corrective traceroutes issued.", "")
	s.corrProbeErrors = s.reg.NewCounter("inanod_corrective_probe_errors_total",
		"Corrective traceroutes that failed.", "")
	s.corrMerged = s.reg.NewCounter("inanod_corrective_changes_merged_total",
		"Atlas changes merged from corrective traceroutes.", "")

	// Upstream observation ingest: what clients share toward the next
	// build, and the aggregate's size.
	s.obsAccepted = s.reg.NewCounter("inanod_observations_accepted_total",
		"Upstream observations accepted over /v1/observations.", "")
	s.obsPaths = s.reg.NewCounter("inanod_observation_paths_total",
		"Clusterized hop-path tails accepted into the structural aggregate.", "")
	s.obsPathRejects = s.reg.NewCounter("inanod_observation_path_rejects_total",
		"Uploaded hop lists rejected at clusterization (unmappable or looping).", "")
	s.obsUnknown = s.reg.NewCounter("inanod_observations_unknown_total",
		"Upstream observations the serving atlas could not place.", "")
	s.obsRateLimited = s.reg.NewCounter("inanod_observations_rate_limited_total",
		"Upstream observations dropped by the per-source rate limit.", "")
	s.obsSnapshots = s.reg.NewCounter("inanod_observation_snapshots_total",
		"Aggregator snapshots written to disk.", "")
	s.reg.NewGaugeFunc("inanod_observation_sources",
		"Reporting peers holding a /v1/observations rate-limit bucket.", "",
		func() float64 { return float64(s.obsLimiter.len()) })
	s.reg.NewCounterFunc("inanod_observation_sources_evicted_total",
		"/v1/observations rate-limit buckets evicted to keep the table bounded.", "",
		func() float64 { return float64(s.obsLimiter.evictions()) })
	if cfg.Aggregator != nil {
		s.reg.NewGaugeFunc("inanod_observation_prefixes",
			"Destination prefixes in the upstream-observation aggregate.", "",
			func() float64 { return float64(cfg.Aggregator.Stats().Prefixes) })
		s.reg.NewGaugeFunc("inanod_observation_reporters",
			"Reporter slots in use across aggregated prefixes.", "",
			func() float64 { return float64(cfg.Aggregator.Stats().Reporters) })
		s.reg.NewGaugeFunc("inanod_observation_path_slots",
			"Reporter slots holding a clusterized hop path.", "",
			func() float64 { return float64(cfg.Aggregator.Stats().Paths) })
		s.reg.NewCounterFunc("inanod_observation_evicted_prefixes_total",
			"Prefixes the aggregate dropped to stay within its bound.", "",
			func() float64 { return float64(cfg.Aggregator.Stats().EvictedPrefixes) })
	}

	lastRound := func(v func(feedback.Round) float64) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return v(s.lastRound)
		}
	}
	s.reg.NewGaugeFunc("inanod_corrective_budget_utilization",
		"Fraction of the corrective budget spent in the last round.", "",
		lastRound(feedback.Round.Utilization))
	s.reg.NewGaugeFunc("inanod_corrective_last_round_budget",
		"Probe budget of the last corrective round.", "",
		lastRound(func(r feedback.Round) float64 { return float64(r.Budget) }))
	s.reg.NewGaugeFunc("inanod_corrective_last_round_probes",
		"Corrective traceroutes issued in the last round.", "",
		lastRound(func(r feedback.Round) float64 { return float64(r.Probes) }))
	s.reg.NewGaugeFunc("inanod_corrective_last_round_merged",
		"Atlas changes merged from the last round's traceroutes.", "",
		lastRound(func(r feedback.Round) float64 { return float64(r.Merged) }))
	s.reg.NewGaugeFunc("inanod_feedback_sources",
		"Reporting peers holding a /v1/feedback rate-limit bucket.", "",
		func() float64 { return float64(s.fbLimiter.len()) })
	s.reg.NewCounterFunc("inanod_feedback_sources_evicted_total",
		"/v1/feedback rate-limit buckets evicted to keep the table bounded.", "",
		func() float64 { return float64(s.fbLimiter.evictions()) })
	s.reg.NewGaugeFunc("inanod_feedback_tracked_destinations",
		"Destination clusters currently tracked by the error tracker.", "",
		func() float64 { return float64(s.c.FeedbackStats().Entries) })
	s.reg.NewCounterFunc("inanod_feedback_tracked_samples_total",
		"Observations folded into the error tracker.", "",
		func() float64 { return float64(s.c.FeedbackStats().TotalSamples) })
	s.reg.NewCounterFunc("inanod_feedback_destinations_evicted_total",
		"Destination clusters the error tracker dropped to stay within its bound.", "",
		func() float64 { return float64(s.c.FeedbackStats().Evicted) })
	s.reg.NewGaugeFunc("inanod_feedback_mean_error",
		"Mean EWMA relative RTT error over tracked destinations.", "",
		func() float64 { return s.c.FeedbackStats().MeanErr })
	s.reg.NewGaugeFunc("inanod_feedback_worst_error",
		"Largest EWMA relative RTT error over tracked destinations.", "",
		func() float64 { return s.c.FeedbackStats().WorstErr })

	// Engine-owned values are sampled at scrape time. The tree cache resets
	// when a reload swaps the engine, so these are gauges, not counters.
	s.reg.NewGaugeFunc("inanod_tree_cache_hits", "Tree cache hits (resets on reload).", "",
		func() float64 { return float64(s.c.CacheStats().Hits) })
	s.reg.NewGaugeFunc("inanod_tree_cache_misses", "Tree cache misses (resets on reload).", "",
		func() float64 { return float64(s.c.CacheStats().Misses) })
	s.reg.NewGaugeFunc("inanod_tree_cache_builds", "Dijkstra tree searches started, the warmer's behind a reload included (resets on reload).", "",
		func() float64 { return float64(s.c.CacheStats().Builds) })
	s.reg.NewGaugeFunc("inanod_tree_cache_warmed", "Trees rebuilt behind the last reload from those resident before it (resets on reload).", "",
		func() float64 { return float64(s.c.CacheStats().Warmed) })
	s.reg.NewGaugeFunc("inanod_tree_cache_warm_hits", "Warmed trees a lookup has since asked for (resets on reload); over inanod_tree_cache_warmed, whether the rebuild was worth it.", "",
		func() float64 { return float64(s.c.CacheStats().WarmHits) })
	s.reg.NewGaugeFunc("inanod_tree_cache_build_seconds",
		"Wall time spent in Dijkstra tree builds (resets on reload); over inanod_tree_cache_builds, the price of one cold destination.", "",
		func() float64 { return time.Duration(s.c.CacheStats().BuildNS).Seconds() })
	s.reg.NewGaugeFunc("inanod_tree_cache_resident", "Prediction trees currently cached.", "",
		func() float64 { return float64(s.c.CacheStats().Len) })
	s.reg.NewGaugeFunc("inanod_tree_cache_suspended", "Resident trees whose search stopped short of the end and kept its frontier to resume from.", "",
		func() float64 { return float64(s.c.CacheStats().Suspended) })
	s.reg.NewGaugeFunc("inanod_tree_cache_bytes", "Bytes those trees retain: resident times the size of one tree, computed, not sampled.", "",
		func() float64 { return float64(s.c.CacheStats().Bytes) })
	s.reg.NewGaugeFunc("inanod_tree_cache_hit_ratio", "Hits / lookups of the tree cache.", "",
		func() float64 {
			st := s.c.CacheStats()
			if st.Hits+st.Misses == 0 {
				return 0
			}
			return float64(st.Hits) / float64(st.Hits+st.Misses)
		})
	s.reg.NewGaugeFunc("inanod_atlas_day", "Measurement day of the serving atlas.", "",
		func() float64 { return float64(s.c.Snapshot().Day()) })
	s.reg.NewGaugeFunc("inanod_atlas_clusters", "Clusters in the serving atlas.", "",
		func() float64 { return float64(s.c.Snapshot().AtlasStats().Clusters) })
	s.reg.NewGaugeFunc("inanod_atlas_links", "Links in the serving atlas.", "",
		func() float64 { return float64(s.c.Snapshot().AtlasStats().Links) })
	s.reg.NewGaugeFunc("inanod_atlas_prefixes", "Prefixes the serving atlas attaches to a cluster.", "",
		func() float64 { return float64(s.c.Snapshot().AtlasStats().Prefixes) })
	// The last applied delta, read at scrape time; every value is 0 before
	// the first.
	lastRoll := func(v func(inano.RollStats) float64) func() float64 {
		return func() float64 {
			st, _ := s.c.LastRoll()
			return v(st)
		}
	}
	s.reg.NewGaugeFunc("inanod_reload_seconds",
		"Time the last applied delta took to merge into the serving atlas (0 = none applied).", "",
		lastRoll(func(st inano.RollStats) float64 { return st.Duration.Seconds() }))
	s.reg.NewGaugeFunc("inanod_reload_links_changed",
		"Links the last applied delta added, removed or re-tagged.", "",
		lastRoll(func(st inano.RollStats) float64 { return float64(st.LinksChanged()) }))
	s.reg.NewGaugeFunc("inanod_reload_from_day",
		"Day the last applied delta rolled from (0 = none applied).", "",
		lastRoll(func(st inano.RollStats) float64 { return float64(st.FromDay) }))
	for _, ch := range rollChanges {
		s.reg.NewGaugeFunc("inanod_reload_changes",
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

// Draining reports whether StartDraining was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlight returns the number of requests currently being served.
func (s *Server) InFlight() int64 { return s.inflight.Value() }

// drainGated marks the endpoints a draining replica refuses: the serving
// surface. Health, metrics and stats keep answering so operators and
// routers can watch the drain.
var drainGated = map[string]bool{
	"query": true, "batch": true, "rank": true,
	"feedback": true, "relay": true, "observations": true,
}

// Handler returns the daemon's routing handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("/metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("/debug/stats", s.instrument("stats", func(w http.ResponseWriter, r *http.Request) error {
		w.Header().Set("Content-Type", "application/json")
		return s.reg.WriteJSON(w)
	}))
	mux.HandleFunc("/v1/query", s.instrument("query", s.handleQuery))
	mux.HandleFunc("/v1/batch", s.instrument("batch", s.handleBatch))
	mux.HandleFunc("/v1/rank", s.instrument("rank", s.handleRank))
	mux.HandleFunc("/v1/feedback", s.instrument("feedback", s.handleFeedback))
	mux.HandleFunc("/v1/relay", s.instrument("relay", s.handleRelay))
	mux.HandleFunc("/v1/observations", s.instrument("observations", s.handleObservations))
	return mux
}

// instrument wraps a handler with in-flight, request-count, error-count,
// and latency instrumentation. The accounting is deferred so a panicking
// handler (net/http recovers it and keeps serving) still decrements the
// in-flight gauge and is counted as an error instead of silently skewing
// the metrics.
func (s *Server) instrument(name string, h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	hm := s.handlers[name]
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.PeerID != "" {
			w.Header().Set("X-Inano-Peer", s.cfg.PeerID)
		}
		if s.draining.Load() && drainGated[name] {
			// Refused, not dropped: a router retries the request on the
			// ring's next replica, so a rolling restart loses no queries.
			hm.requests.Inc()
			hm.errors.Inc()
			w.Header().Set("X-Inano-Draining", "1")
			_ = httpError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		s.inflight.Inc()
		hm.requests.Inc()
		start := time.Now()
		var err error
		panicked := true
		defer func() {
			hm.latency.Observe(time.Since(start).Seconds())
			s.inflight.Dec()
			if panicked {
				hm.errors.Inc()
				s.cfg.Logf("inanod: %s: handler panicked", name)
			} else if err != nil {
				hm.errors.Inc()
				s.cfg.Logf("inanod: %s: %v", name, err)
			}
		}()
		err = h(w, r)
		panicked = false
	}
}

// requestContext is batchpipe.RequestContext of the request's parsed query
// string q with the server's DefaultDeadline and MaxDeadline.
func (s *Server) requestContext(r *http.Request, q url.Values) (context.Context, context.CancelFunc, error) {
	return batchpipe.RequestContext(r.Context(), q, s.cfg.DefaultDeadline, s.cfg.MaxDeadline)
}

// httpError writes a JSON error body and reports the error for counting.
func httpError(w http.ResponseWriter, code int, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
	return errors.New(msg)
}

func writeJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	return writeJSONBody(w, v)
}

// writeJSONBody encodes v without touching headers — for handlers that
// already wrote a non-200 status.
func writeJSONBody(w http.ResponseWriter, v any) error {
	return json.NewEncoder(w).Encode(v)
}

// --- wire types ---

// queryResult is the answer for one (src, dst) pair, shared by /v1/query
// and /v1/batch lines. FwdMS+RevMS always sum to RTTMS — a cheap
// client-side integrity check that an answer was not torn.
type queryResult struct {
	Src      string       `json:"src"`
	Dst      string       `json:"dst"`
	Found    bool         `json:"found"`
	RTTMS    float64      `json:"rtt_ms,omitempty"`
	LossRate float64      `json:"loss_rate,omitempty"`
	FwdMS    float64      `json:"fwd_ms,omitempty"`
	RevMS    float64      `json:"rev_ms,omitempty"`
	FwdAS    []netsim.ASN `json:"fwd_as_path,omitempty"`
	RevAS    []netsim.ASN `json:"rev_as_path,omitempty"`
	Day      int          `json:"day"`
	Error    string       `json:"error,omitempty"`
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
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		return writeJSONBody(w, body)
	}
	return writeJSON(w, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	return s.reg.WritePrometheus(w)
}

// linePool holds the buffers /v1/query answers are encoded into.
var linePool = sync.Pool{New: func() any { return new([]byte) }}

// handleQuery answers one (src, dst) query. GET with ?src=&dst=, or POST
// with one /v1/batch request line as the body (batchpipe.ParseLine), whose
// deadline_ms bounds the answer inside the request's own deadline;
// ?deadline_ms= bounds either. Concurrent queries to one cold destination
// share a single tree search (the engine's cache). The answer is a batch
// answer line plus the two AS paths, from the same encoder, written in one
// piece.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) error {
	var l batchpipe.Line
	q := r.URL.Query()
	switch r.Method {
	case http.MethodGet:
		var err error
		if l.SrcIP, err = netsim.ParseIPv4(q.Get("src")); err != nil {
			return httpError(w, http.StatusBadRequest, "src: %v", err)
		}
		if l.DstIP, err = netsim.ParseIPv4(q.Get("dst")); err != nil {
			return httpError(w, http.StatusBadRequest, "dst: %v", err)
		}
	case http.MethodPost:
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, batchpipe.MaxLineBytes))
		if err != nil {
			return httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		}
		if l, err = batchpipe.ParseLine(bytes.TrimSpace(body)); err != nil {
			return httpError(w, http.StatusBadRequest, "%v", err)
		}
	default:
		return httpError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
	ctx, cancel, err := s.requestContext(r, q)
	if err != nil {
		return httpError(w, http.StatusBadRequest, "%v", err)
	}
	defer cancel()
	if l.DeadlineMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(l.DeadlineMS)*time.Millisecond)
		defer cancel()
	}
	// One pinned snapshot answers and labels the result, so the reported
	// day always matches the atlas that produced the numbers.
	snap := s.c.Snapshot()
	info, err := snap.Query(ctx, netsim.PrefixOf(l.SrcIP), netsim.PrefixOf(l.DstIP))
	if err != nil {
		return httpError(w, http.StatusGatewayTimeout, "query aborted: %v", err)
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
// The stream runs in two stages over two window slots: this goroutine
// reads, parses and answers (StreamBatch.Run) window N+1 into one slot
// while a batchpipe.Stage goroutine, alive for this request only, encodes
// window N from the other and hands it to the ResponseWriter in one Write
// and one Flush. The ResponseWriter is this goroutine's before the stage
// starts (headers, an early error) and after it has exited (the terminal
// error line). Memory on the server is two windows, of lines and of encoded
// answers, grown as the lines arrive, regardless of batch size.
//
// A line may carry its own "deadline_ms": a per-pair answer-latency
// bound measured from line receipt. A pair whose deadline passes before
// its answer is ready — window buffering included, so clients pairing
// tight deadlines with a large ?window= or a slow producer will expire
// their own pairs — comes back as a per-pair failure line (src/dst
// echoed, "found":false, "error":"deadline_ms exceeded") while the
// stream continues: partial results instead of an aborted window.
//
// A malformed line or an expired request deadline ends the stream with the
// terminal line (batchpipe.Stage.End); a response the client no longer
// takes ends it at the reader's next window.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) error {
	if r.Method != http.MethodPost {
		return httpError(w, http.StatusMethodNotAllowed, "use POST")
	}
	q := r.URL.Query()
	ctx, cancel, err := s.requestContext(r, q)
	if err != nil {
		return httpError(w, http.StatusBadRequest, "%v", err)
	}
	defer cancel()
	window := s.cfg.StreamWindow
	if window <= 0 {
		window = core.DefaultStreamWindow
	}
	if window, err = batchpipe.Window(q, window); err != nil {
		return httpError(w, http.StatusBadRequest, "%v", err)
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	// Full duplex lets us keep reading request pairs after response lines
	// start flowing; without it the HTTP/1 server drains the request body
	// before the first response flush, deadlocking an interleaved producer.
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil {
		return httpError(w, http.StatusInternalServerError, "streaming unsupported: %v", err)
	}

	scanner := bufio.NewScanner(r.Body)
	scanner.Buffer(make([]byte, 0, 4096), batchpipe.MaxLineBytes)
	var inputErr, streamErr error // either ends the stream with a terminal error line
	lineNo := 0

	// One pinned snapshot serves the whole stream and labels every line;
	// prediction trees built for one window stay cached for the next. The
	// one reusable runner keeps the stream's per-window buffers alive across
	// windows (and skips AS-path derivation: batch lines never serialize
	// them), so steady-state windows allocate nothing.
	snap := s.c.Snapshot()
	sb := snap.StreamBatch(true)
	var reqs []core.PairReq
	st, slot := batchpipe.Start(w, rc, func(slot *batchSlot) ([]byte, int, error) {
		slot.buf = appendWindow(slot.buf[:0], slot.lines, snap.Day())
		return slot.buf, len(slot.lines), nil
	})
	// A panic on either goroutine must not leave the stage behind, nor the
	// lines that went out uncounted.
	defer func() {
		st.Finish()
		s.pairsTotal.Add(uint64(st.Written))
	}()
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
	for live && scanner.Scan() {
		lineNo++
		line := bytes.TrimSpace(scanner.Bytes())
		if len(line) == 0 {
			continue
		}
		l, err := batchpipe.ParseLine(line)
		if err != nil {
			inputErr = fmt.Errorf("line %d: %v", lineNo, err)
			break
		}
		pr := inano.PairOf(l.SrcIP, l.DstIP)
		if l.DeadlineMS > 0 {
			pr.Deadline = time.Now().Add(time.Duration(l.DeadlineMS) * time.Millisecond)
		}
		reqs = append(reqs, pr)
		slot.lines = append(slot.lines, answerLine{srcIP: l.SrcIP, dstIP: l.DstIP})
		if len(reqs) >= window {
			live = runWindow()
		}
	}
	if err := scanner.Err(); err != nil && inputErr == nil && live {
		inputErr = fmt.Errorf("reading batch body: %w", err)
	}
	if live {
		runWindow()
	}
	return st.End(inputErr, streamErr)
}

// rankRequest asks to order candidate IPs for a source. With SizeBytes > 0
// candidates are ranked by predicted TCP transfer time of that many bytes
// (the CDN shape, §7.1); otherwise by predicted RTT.
type rankRequest struct {
	Src        string   `json:"src"`
	Candidates []string `json:"candidates"`
	SizeBytes  int      `json:"size_bytes"`
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
	if r.Method != http.MethodPost {
		return httpError(w, http.StatusMethodNotAllowed, "use POST")
	}
	var req rankRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, batchpipe.MaxRankBytes)).Decode(&req); err != nil {
		return httpError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	src, err := netsim.ParseIPv4(req.Src)
	if err != nil {
		return httpError(w, http.StatusBadRequest, "src: %v", err)
	}
	if len(req.Candidates) == 0 {
		return httpError(w, http.StatusBadRequest, "no candidates")
	}
	ips := make([]netsim.IP, len(req.Candidates))
	dsts := make([]netsim.Prefix, len(req.Candidates))
	for i, c := range req.Candidates {
		if ips[i], err = netsim.ParseIPv4(c); err != nil {
			return httpError(w, http.StatusBadRequest, "candidate %d: %v", i, err)
		}
		dsts[i] = netsim.PrefixOf(ips[i])
	}
	ctx, cancel, err := s.requestContext(r, r.URL.Query())
	if err != nil {
		return httpError(w, http.StatusBadRequest, "%v", err)
	}
	defer cancel()
	snap := s.c.Snapshot()
	ranked, err := snap.Rank(ctx, netsim.PrefixOf(src), dsts, req.SizeBytes)
	if err != nil {
		return httpError(w, http.StatusGatewayTimeout, "rank aborted: %v", err)
	}
	out := make([]rankedCandidate, len(ranked))
	for i, rk := range ranked {
		out[i] = rankedCandidate{IP: ips[rk.Index].String(), Found: rk.Found, RTTMS: rk.RTTMS, LossRate: rk.LossRate, TransferMS: rk.TransferMS}
	}
	return writeJSON(w, map[string]any{"src": src.String(), "day": snap.Day(), "ranked": out})
}
