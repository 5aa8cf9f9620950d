package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"inano/internal/api"
	"inano/internal/netsim"
)

// fakeReplica speaks just enough of the inanod HTTP contract for the
// router: /healthz with a drain toggle, /v1/query and /v1/relay echoing
// which replica answered (in the "day" field, so assertions ride the
// forwarded-verbatim body), and a streaming /v1/batch that answers each
// line incrementally and can be told to die mid-stream or to stall.
type fakeReplica struct {
	id       int
	ts       *httptest.Server
	draining atomic.Bool
	// dieAfterBatchLines > 0: the replica dies for good once it has
	// answered that many batch lines over all its requests — the request
	// under way is cut short there (handler returns) and every later one
	// ends before its first answer.
	dieAfterBatchLines atomic.Int64
	// windowed: honor the router's ?window= like a real inanod — answers
	// stay buffered until a full window (or body EOF) flushes them.
	windowed atomic.Bool
	// stallUntilEOF: swallow the whole sub-request answering nothing and
	// end the response, empty, at body EOF.
	stallUntilEOF atomic.Bool
	// stall, when set, holds every batch request open, unanswered, until
	// the channel is closed or the request is cancelled.
	stall atomic.Pointer[chan struct{}]
	// abortWith, when set, answers every batch request with one terminal
	// line carrying it, as an inanod whose own deadline expired would.
	abortWith  atomic.Pointer[string]
	queries    atomic.Int64
	batchLines atomic.Int64 // batch lines answered
	batchReqs  atomic.Int64 // batch requests received
	windowSum  atomic.Int64 // the ?window= of every batch request, added up
}

func newFakeReplica(t *testing.T, id int) *fakeReplica {
	t.Helper()
	f := &fakeReplica{id: id}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if f.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"status":"draining"}`)
			return
		}
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	serve := func(w http.ResponseWriter, src, dst string) {
		if f.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"draining"}`)
			return
		}
		f.queries.Add(1)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"src": src, "dst": dst, "found": true, "day": f.id,
		})
	}
	mux.HandleFunc("/v1/query", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		serve(w, q.Get("src"), q.Get("dst"))
	})
	mux.HandleFunc("/v1/relay", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		serve(w, q.Get("src"), q.Get("dst"))
	})
	mux.HandleFunc("/v1/rank", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var req struct {
			Candidates []string `json:"candidates"`
		}
		json.Unmarshal(body, &req)
		serve(w, "", req.Candidates[0])
	})
	mux.HandleFunc("/v1/batch", f.handleBatch)
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fakeReplica) handleBatch(w http.ResponseWriter, r *http.Request) {
	if f.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		return
	}
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	f.batchReqs.Add(1)
	if f.stallUntilEOF.Load() {
		io.Copy(io.Discard, r.Body)
		return
	}
	if stall := f.stall.Load(); stall != nil {
		io.Copy(io.Discard, r.Body) // net/http watches for a vanished client only once the body is read
		select {
		case <-*stall:
		case <-r.Context().Done():
		}
		return
	}
	asked, _ := strconv.Atoi(r.URL.Query().Get("window"))
	f.windowSum.Add(int64(asked))
	window := 0
	if f.windowed.Load() {
		window = asked
	}
	enc := json.NewEncoder(w)
	if msg := f.abortWith.Load(); msg != nil {
		fmt.Fprintf(w, `{"src":"","dst":"","found":false,"day":%d,"error":%q}`+"\n", f.id, *msg)
		return
	}
	sc := bufio.NewScanner(r.Body)
	buffered := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if die := f.dieAfterBatchLines.Load(); die > 0 && f.batchLines.Load() >= die {
			// Handler return cuts the response short: the router sees it end
			// with lines of the sub-request unanswered.
			return
		}
		var req struct {
			Src string `json:"src"`
			Dst string `json:"dst"`
		}
		if err := json.Unmarshal([]byte(line), &req); err != nil {
			enc.Encode(map[string]any{"error": "bad pair: " + err.Error()})
			rc.Flush()
			return
		}
		// An inanod's answer line: src first (the router goes by that).
		fmt.Fprintf(w, `{"src":%q,"dst":%q,"found":true,"day":%d}`+"\n", req.Src, req.Dst, f.id)
		buffered++
		if window <= 0 || buffered >= window {
			rc.Flush()
			buffered = 0
		}
		f.batchLines.Add(1)
	}
	// Body EOF: the handler return flushes whatever the window held back.
}

// clusterOfPrefix is the test routing table: every prefix is its own
// cluster, so distinct destinations spread over the ring.
func clusterOfPrefix(p netsim.Prefix) (ClusterID, bool) {
	return ClusterID(p), true
}

func newTestRouter(t *testing.T, replicas []*fakeReplica, mut func(*RouterConfig)) (*Router, *httptest.Server) {
	t.Helper()
	var nodes []string
	for _, f := range replicas {
		nodes = append(nodes, f.ts.URL)
	}
	cfg := RouterConfig{
		Nodes:     nodes,
		ClusterOf: clusterOfPrefix,
		Window:    16,
		Logf:      t.Logf,
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

// dstForIndex generates distinct valid destination addresses.
func dstForIndex(i int) string {
	return fmt.Sprintf("10.%d.%d.1", (i>>8)&255, i&255)
}

func replicaByURL(replicas []*fakeReplica, url string) *fakeReplica {
	for _, f := range replicas {
		if f.ts.URL == url {
			return f
		}
	}
	return nil
}

func TestQueryRoutesToRingOwner(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t, 0), newFakeReplica(t, 1), newFakeReplica(t, 2)}
	rt, ts := newTestRouter(t, replicas, nil)

	for i := 0; i < 50; i++ {
		dst := dstForIndex(i)
		ip, err := netsim.ParseIPv4(dst)
		if err != nil {
			t.Fatal(err)
		}
		c, _ := clusterOfPrefix(netsim.PrefixOf(ip))
		want := rt.Ring().Owner(KeyForCluster(c))

		resp, err := http.Get(ts.URL + "/v1/query?src=10.0.0.1&dst=" + dst)
		if err != nil {
			t.Fatal(err)
		}
		var res struct {
			Dst string `json:"dst"`
			Day int    `json:"day"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("dst %s: status %d", dst, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Inano-Backend"); got != want {
			t.Fatalf("dst %s served by %s, ring owner is %s", dst, got, want)
		}
		if res.Day != replicaByURL(replicas, want).id {
			t.Fatalf("dst %s: answer from replica %d, owner id %d", dst, res.Day, replicaByURL(replicas, want).id)
		}
		if res.Dst != dst {
			t.Fatalf("dst echoed as %q", res.Dst)
		}
	}
	// The table spreads 50 destinations; every replica should have seen some.
	for _, f := range replicas {
		if f.queries.Load() == 0 {
			t.Errorf("replica %d served no queries: partitioning is not spreading", f.id)
		}
	}
}

func TestProxyRetriesOnDrainingReplica(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t, 0), newFakeReplica(t, 1), newFakeReplica(t, 2)}
	rt, ts := newTestRouter(t, replicas, nil)

	// Find a destination owned by replica 0, then drain replica 0.
	var dst, owner string
	for i := 0; i < 1000; i++ {
		d := dstForIndex(i)
		ip, _ := netsim.ParseIPv4(d)
		c, _ := clusterOfPrefix(netsim.PrefixOf(ip))
		if o := rt.Ring().Owner(KeyForCluster(c)); o == replicas[0].ts.URL {
			dst, owner = d, o
			break
		}
	}
	if dst == "" {
		t.Fatal("no destination owned by replica 0 in 1000 tries")
	}
	replicas[0].draining.Store(true)

	resp, err := http.Get(ts.URL + "/v1/query?src=10.0.0.1&dst=" + dst)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 via fallback", resp.StatusCode)
	}
	backend := resp.Header.Get("X-Inano-Backend")
	if backend == owner {
		t.Fatalf("served by draining owner %s", backend)
	}
	if got := resp.Header.Get("X-Inano-Attempts"); got != "2" {
		t.Fatalf("X-Inano-Attempts = %q, want 2", got)
	}
	// The 503 also knocked the replica out of the ring for later requests.
	if rt.Ring().Len() != 2 {
		t.Fatalf("ring has %d nodes after drain 503, want 2", rt.Ring().Len())
	}

	// A second query for the same destination goes straight to the new
	// owner, no retry.
	resp2, err := http.Get(ts.URL + "/v1/query?src=10.0.0.1&dst=" + dst)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Inano-Attempts"); got != "1" {
		t.Fatalf("second query X-Inano-Attempts = %q, want 1", got)
	}
}

func TestHealthLoopRestoresReplica(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t, 0), newFakeReplica(t, 1)}
	rt, _ := newTestRouter(t, replicas, func(cfg *RouterConfig) {
		cfg.HealthInterval = 10 * time.Millisecond
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rt.Run(ctx)

	replicas[0].draining.Store(true)
	waitFor(t, time.Second, func() bool { return rt.Ring().Len() == 1 })
	replicas[0].draining.Store(false)
	waitFor(t, time.Second, func() bool { return rt.Ring().Len() == 2 })
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// routerMetric reads one series, its labels in braces when it has any, off
// the router's /metrics.
func routerMetric(t *testing.T, rt *Router, series string) (v uint64) {
	t.Helper()
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if _, err := fmt.Sscanf(line, series+" %d", &v); err == nil {
			return v
		}
	}
	t.Fatalf("no %s in the router's metrics", series)
	return 0
}

func TestRouterHealthzDegradedAndDown(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t, 0), newFakeReplica(t, 1)}
	rt, ts := newTestRouter(t, replicas, nil)

	check := func(wantCode int, wantStatus string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h struct {
			Status string `json:"status"`
			Live   int    `json:"live"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != wantCode || h.Status != wantStatus {
			t.Fatalf("healthz = %d %q, want %d %q", resp.StatusCode, h.Status, wantCode, wantStatus)
		}
	}
	check(http.StatusOK, "ok")
	rt.markDown(replicas[0].ts.URL, "test")
	check(http.StatusOK, "degraded")
	rt.markDown(replicas[1].ts.URL, "test")
	check(http.StatusServiceUnavailable, "down")
	rt.markUp(replicas[1].ts.URL)
	check(http.StatusOK, "degraded")
}

func TestRankRoutesByFirstCandidate(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t, 0), newFakeReplica(t, 1), newFakeReplica(t, 2)}
	rt, ts := newTestRouter(t, replicas, nil)

	dst := dstForIndex(7)
	ip, _ := netsim.ParseIPv4(dst)
	c, _ := clusterOfPrefix(netsim.PrefixOf(ip))
	want := rt.Ring().Owner(KeyForCluster(c))

	body := fmt.Sprintf(`{"src":"10.0.0.1","candidates":[%q,"10.9.9.1"]}`, dst)
	resp, err := http.Post(ts.URL+"/v1/rank", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Inano-Backend"); got != want {
		t.Fatalf("rank served by %s, first candidate's owner is %s", got, want)
	}
}

// TestQueryBodyCap: the router reads a /v1/query POST body up to
// api.MaxLineBytes, the cap its replicas hold it to. A valid query
// followed by whitespace past the cap is refused, not cut at the cap and
// forwarded; at the cap it is forwarded.
func TestQueryBodyCap(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t, 0)}
	_, ts := newTestRouter(t, replicas, nil)
	query := fmt.Sprintf(`{"src":"10.0.0.1","dst":%q}`, dstForIndex(3))
	for size, want := range map[int]int{
		api.MaxLineBytes:     http.StatusOK,
		api.MaxLineBytes + 1: http.StatusBadRequest,
	} {
		body := query + strings.Repeat(" ", size-len(query))
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%d-byte body: status %d, want %d", size, resp.StatusCode, want)
		}
	}
	if n := replicas[0].queries.Load(); n != 1 {
		t.Fatalf("replica saw %d queries, want the one under the cap", n)
	}
}

func TestQueryBadDestination(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t, 0)}
	_, ts := newTestRouter(t, replicas, nil)
	resp, err := http.Get(ts.URL + "/v1/query?src=10.0.0.1&dst=not-an-ip")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if replicas[0].queries.Load() != 0 {
		t.Fatal("bad destination reached a replica")
	}
}

func TestNoLiveReplica(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t, 0)}
	rt, ts := newTestRouter(t, replicas, nil)
	rt.markDown(replicas[0].ts.URL, "test")
	resp, err := http.Get(ts.URL + "/v1/query?src=10.0.0.1&dst=10.0.0.2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
}
