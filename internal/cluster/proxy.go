package cluster

// The router: a thin HTTP tier that fronts N inanod replicas and
// partitions query load by destination cluster over the consistent-hash
// ring (ring.go). It reads each request as a replica does (internal/api)
// and refuses a malformed one itself, in the replica's words; every answer
// is a replica's, forwarded verbatim. So a cluster behind the router serves
// byte-identical results to a single node, from N tree caches, not one.
//
// Fault model: replicas die (kill -9), drain (rolling atlas rolls), and
// come back. The router health-checks every replica, rebuilds the ring
// over the live set when membership changes, and retries a failed
// replica's work on the ring's next node — a batch window's unanswered
// pairs included (batchmux.go). Replicas keep syncing atlases through their
// own swarm/manifest watchers; a day roll needs nothing from the router.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"inano/internal/api"
	"inano/internal/metrics"
	"inano/internal/netsim"
)

// RouterConfig configures a Router.
type RouterConfig struct {
	// Nodes are the replica base URLs (e.g. http://127.0.0.1:7354).
	// Membership is static; liveness is dynamic (health checks + passive
	// failure detection decide which members are in the ring). Required.
	Nodes []string
	// ClusterOf resolves a destination prefix to its cluster — the routing
	// table. Point it at the same flat atlas the replicas serve
	// (atlas.Flat.ClusterOf) so routing agrees with the replicas' tree-
	// cache keys. Required.
	ClusterOf func(p netsim.Prefix) (ClusterID, bool)
	// VNodes is the virtual-node count per replica (<= 0 = DefaultVNodes).
	VNodes int
	// HealthInterval is the /healthz poll period (<= 0 = 2s).
	HealthInterval time.Duration
	// Window is a /v1/batch stream's window in lines when the request
	// carries no ?window= (<= 0 = 1024): the router answers a stream a
	// window at a time, as a replica does, and holds two windows of it.
	Window int
	// Client issues the proxied requests (nil = a keep-alive tuned
	// default). Leave its timeout zero: a request is bounded by its own
	// context, and a timeout here would eject a replica that is only slow.
	Client *http.Client
	// Logf logs routing events (nil = silent).
	Logf func(format string, args ...any)
}

// nodeState tracks one configured replica's liveness.
type nodeState struct {
	name string
	up   atomic.Bool
	upG  *metrics.Gauge
}

// Router fronts the replica set. Create with NewRouter, run the health
// loop with Run, mount Handler.
type Router struct {
	cfg     RouterConfig
	client  *http.Client
	started time.Time
	front   *api.Frame

	nodes map[string]*nodeState
	order []string // configured membership, sorted

	ringMu sync.Mutex // serializes ring rebuilds
	ring   atomic.Pointer[Ring]

	retries    *metrics.Counter
	reshards   *metrics.Counter
	noReplica  *metrics.Counter
	batchLines *metrics.Counter
	batchRetry *metrics.Counter
}

// NewRouter builds a router over cfg.Nodes. All members start healthy —
// the first health pass (Run) corrects that within one interval, and a
// failed proxy corrects it immediately.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one replica")
	}
	if cfg.ClusterOf == nil {
		return nil, fmt.Errorf("cluster: router needs a ClusterOf routing table")
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	if cfg.Window <= 0 {
		cfg.Window = 1024
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	reg := metrics.NewRegistry()
	rt := &Router{
		cfg:     cfg,
		client:  client,
		started: time.Now(),
		nodes:   make(map[string]*nodeState),
	}
	reg.NewGaugeFunc("inano_router_uptime_seconds", "Seconds since the router was built.", "",
		func() float64 { return time.Since(rt.started).Seconds() })
	for _, n := range cfg.Nodes {
		n = strings.TrimRight(n, "/")
		if n == "" || rt.nodes[n] != nil {
			continue
		}
		st := &nodeState{name: n}
		st.up.Store(true)
		st.upG = reg.NewGauge("inano_router_replica_up",
			"1 if the replica is in the serving ring.", `replica="`+n+`"`)
		st.upG.Set(1)
		rt.nodes[n] = st
		rt.order = append(rt.order, n)
	}
	if len(rt.order) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one replica")
	}
	sort.Strings(rt.order)

	rt.front = api.NewFrame(reg, "inano_router", "inano-router", cfg.Logf,
		api.Endpoint{Path: "/v1/query", Serve: rt.handleQuery},
		api.Endpoint{Path: "/v1/batch", Serve: rt.handleBatch},
		api.Endpoint{Path: "/v1/rank", Serve: rt.handleRank},
		api.Endpoint{Path: "/v1/relay", Serve: rt.handleRelay},
		api.Endpoint{Path: "/healthz", Serve: rt.handleHealthz})
	rt.retries = reg.NewCounter("inano_router_retries_total",
		"Proxied requests retried on the ring's next node after a replica failure.", "")
	rt.reshards = reg.NewCounter("inano_router_reshards_total",
		"Ring rebuilds caused by replica membership changes.", "")
	rt.noReplica = reg.NewCounter("inano_router_no_replica_total",
		"Requests failed because no live replica remained.", "")
	rt.batchLines = reg.NewCounter("inano_router_batch_lines_total",
		"Batch lines sent to replicas, re-sends included.", "")
	rt.batchRetry = reg.NewCounter("inano_router_batch_retried_total",
		"Batch lines re-sent to another replica after the first did not answer them.", "")
	reg.NewGaugeFunc("inano_router_ring_nodes", "Replicas in the serving ring.", "",
		func() float64 { return float64(rt.ring.Load().Len()) })
	rt.ring.Store(NewRing(rt.order, cfg.VNodes))
	return rt, nil
}

// Ring returns the current ring over live replicas (empty if none).
func (rt *Router) Ring() *Ring { return rt.ring.Load() }

// rebuildRing rebuilds the ring over the currently-up members. Callers
// flip node states first; the mutex only serializes the rebuilds so a
// late rebuild cannot overwrite a newer membership view.
func (rt *Router) rebuildRing() {
	rt.ringMu.Lock()
	defer rt.ringMu.Unlock()
	live := make([]string, 0, len(rt.order))
	for _, n := range rt.order {
		if rt.nodes[n].up.Load() {
			live = append(live, n)
		}
	}
	rt.ring.Store(NewRing(live, rt.cfg.VNodes))
	rt.reshards.Inc()
}

// markDown removes a replica from the ring (no-op if already out).
func (rt *Router) markDown(node, why string) {
	st := rt.nodes[node]
	if st == nil || !st.up.CompareAndSwap(true, false) {
		return
	}
	st.upG.Set(0)
	rt.cfg.Logf("inano-router: replica %s out of ring: %s", node, why)
	rt.rebuildRing()
}

// markUp returns a replica to the ring (no-op if already in).
func (rt *Router) markUp(node string) {
	st := rt.nodes[node]
	if st == nil || !st.up.CompareAndSwap(false, true) {
		return
	}
	st.upG.Set(1)
	rt.cfg.Logf("inano-router: replica %s back in ring", node)
	rt.rebuildRing()
}

// Run health-checks every replica each HealthInterval until ctx is done.
// A replica is live iff /healthz answers 200 within the interval — a
// draining replica answers 503, so starting a drain pulls it from the
// ring on the next pass without dropping its in-flight work.
func (rt *Router) Run(ctx context.Context) {
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	rt.healthPass(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.healthPass(ctx)
		}
	}
}

// healthPass probes all replicas concurrently.
func (rt *Router) healthPass(ctx context.Context) {
	var wg sync.WaitGroup
	for _, n := range rt.order {
		wg.Add(1)
		go func(node string) {
			defer wg.Done()
			if rt.probe(ctx, node) {
				rt.markUp(node)
			} else {
				rt.markDown(node, "health check failed")
			}
		}(n)
	}
	wg.Wait()
}

func (rt *Router) probe(ctx context.Context, node string) bool {
	pctx, cancel := context.WithTimeout(ctx, min(rt.cfg.HealthInterval, 2*time.Second))
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, node+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// keyFor resolves a destination to its ring key through the routing table.
func (rt *Router) keyFor(dst netsim.IP) uint64 {
	p := netsim.PrefixOf(dst)
	if c, ok := rt.cfg.ClusterOf(p); ok {
		return KeyForCluster(c)
	}
	return KeyForPrefix(uint32(p))
}

// Handler returns the router's HTTP surface: the proxied serving
// endpoints plus the router's own /healthz, /metrics and /debug/stats.
func (rt *Router) Handler() http.Handler { return rt.front }

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	live := 0
	replicas := make(map[string]any, len(rt.order))
	for _, n := range rt.order {
		up := rt.nodes[n].up.Load()
		if up {
			live++
		}
		replicas[n] = map[string]any{"up": up}
	}
	status := "ok"
	code := http.StatusOK
	switch {
	case live == 0:
		status = "down"
		code = http.StatusServiceUnavailable
	case live < len(rt.order):
		status = "degraded"
	}
	return api.WriteJSON(w, code, map[string]any{
		"status":   status,
		"live":     live,
		"replicas": replicas,
		"uptime_s": int64(time.Since(rt.started).Seconds()),
	})
}

// retryableStatus reports whether a replica response means "try another
// node": 502/503/504 from a dying or draining replica. Anything else —
// including 4xx, which would fail identically everywhere — is the
// answer.
func retryableStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout
}

// proxy forwards one single-shot request to the key's owner, walking the
// ring's fallback sequence on replica failure. body is the replayable
// request body (nil for GET). The replica's response streams back
// verbatim, plus X-Inano-Backend/X-Inano-Attempts headers identifying
// the serving replica and how many nodes were tried.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, key uint64, body []byte) error {
	ring := rt.ring.Load()
	owners := ring.Owners(key, 0)
	attempts := 0
	for _, node := range owners {
		if !rt.nodes[node].up.Load() {
			continue // went down since the ring snapshot
		}
		attempts++
		if attempts > 1 {
			rt.retries.Inc()
		}
		var br io.Reader
		if body != nil {
			br = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method,
			node+r.URL.RequestURI(), br)
		if err != nil {
			return api.Refuse(http.StatusInternalServerError, "proxy: %v", err).Write(w)
		}
		if ct := r.Header.Get("Content-Type"); ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			if r.Context().Err() != nil {
				return api.Refuse(http.StatusGatewayTimeout, "proxy: %v", r.Context().Err()).Write(w)
			}
			rt.markDown(node, fmt.Sprintf("proxy error: %v", err))
			continue
		}
		if retryableStatus(resp.StatusCode) {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			rt.markDown(node, fmt.Sprintf("replica answered %d", resp.StatusCode))
			continue
		}
		h := w.Header()
		for _, k := range []string{"Content-Type", "Content-Length", "X-Inano-Peer"} {
			if v := resp.Header.Get(k); v != "" {
				h.Set(k, v)
			}
		}
		h.Set("X-Inano-Backend", node)
		h.Set("X-Inano-Attempts", fmt.Sprintf("%d", attempts))
		w.WriteHeader(resp.StatusCode)
		_, cpErr := io.Copy(w, resp.Body)
		resp.Body.Close()
		return cpErr
	}
	rt.noReplica.Inc()
	return api.Refuse(http.StatusServiceUnavailable, "no live replica for this destination").Write(w)
}

// handleQuery routes one (src, dst) query by destination cluster. Read as a
// replica reads it, a malformed one is refused here, in the replica's words.
func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) error {
	q, rf := api.ReadQuery(w, r)
	if rf != nil {
		return rf.Write(w)
	}
	return rt.proxy(w, r, rt.keyFor(q.Pair.DstIP), q.Body)
}

// handleRank routes a ranking to its first candidate's owner, so at least
// that destination's tree is served hot: split across replicas, one sorted
// answer would cost a round trip a candidate.
func (rt *Router) handleRank(w http.ResponseWriter, r *http.Request) error {
	rk, rf := api.ReadRank(w, r)
	if rf != nil {
		return rf.Write(w)
	}
	return rt.proxy(w, r, rt.keyFor(rk.Candidates[0]), rk.Body)
}

// handleRelay routes a relay selection by its destination cluster.
func (rt *Router) handleRelay(w http.ResponseWriter, r *http.Request) error {
	rl, rf := api.ReadRelay(r)
	if rf != nil {
		return rf.Write(w)
	}
	return rt.proxy(w, r, rt.keyFor(rl.Dst), nil)
}
