package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	inano "inano"
	"inano/internal/atlas"
	"inano/internal/netsim"
	"inano/sim"
)

// fixture is a served world: a client over day 0's atlas plus the encoded
// day 0 -> day 1 delta for reload tests.
type fixture struct {
	client  *inano.Client
	vps     []netsim.Prefix
	targets []netsim.Prefix
	delta   []byte
	day1    *atlas.Atlas
}

func buildFixture(t testing.TB, seed int64) *fixture {
	t.Helper()
	w := sim.NewWorld(sim.Tiny, seed)
	vps := w.VantagePoints(12)
	targets := append([]netsim.Prefix(nil), w.EdgePrefixes()...)
	seen := make(map[netsim.Prefix]bool, len(targets))
	for _, p := range targets {
		seen[p] = true
	}
	for _, vp := range vps {
		if !seen[vp] {
			targets = append(targets, vp)
		}
	}
	build := func(day int) *atlas.Atlas {
		return w.Measure(sim.CampaignOptions{Day: day, VPs: vps, Targets: targets}).BuildAtlas()
	}
	a0, a1 := build(0), build(1)
	var buf bytes.Buffer
	if err := atlas.Diff(a0, a1).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return &fixture{
		client:  inano.FromAtlas(a0),
		vps:     vps,
		targets: targets,
		delta:   buf.Bytes(),
		day1:    a1,
	}
}

// start serves the fixture over httptest with the given extra config.
func start(t testing.TB, f *fixture, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{Client: f.client, Logf: t.Logf}
	if mut != nil {
		mut(&cfg)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
	return resp
}

func ipStr(p netsim.Prefix) string { return p.HostIP().String() }

func TestHealthz(t *testing.T) {
	f := buildFixture(t, 200)
	_, ts := start(t, f, nil)
	var body struct {
		Status string `json:"status"`
		Day    int    `json:"day"`
	}
	resp := getJSON(t, ts.URL+"/healthz", &body)
	if resp.StatusCode != 200 || body.Status != "ok" || body.Day != 0 {
		t.Fatalf("healthz = %d %+v, want 200 ok day 0", resp.StatusCode, body)
	}
}

// TestQueryEndpointParity checks /v1/query returns exactly the library
// answer, including the torn-read invariant rtt == fwd + rev.
func TestQueryEndpointParity(t *testing.T) {
	f := buildFixture(t, 201)
	_, ts := start(t, f, nil)
	src, dst := f.vps[0], f.targets[7]
	want := f.client.QueryPrefix(src, dst)

	var got queryResult
	resp := getJSON(t, fmt.Sprintf("%s/v1/query?src=%s&dst=%s", ts.URL, ipStr(src), ipStr(dst)), &got)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got.Found != want.Found || got.RTTMS != want.RTTMS || got.LossRate != want.LossRate {
		t.Fatalf("wire %+v != library %+v", got, want)
	}
	if want.Found && math.Abs(got.FwdMS+got.RevMS-got.RTTMS) > 1e-9 {
		t.Fatalf("fwd %v + rev %v != rtt %v", got.FwdMS, got.RevMS, got.RTTMS)
	}

	// Bad input surfaces as a 400 with a JSON error, not a 500.
	resp2, err := http.Get(ts.URL + "/v1/query?src=nonsense&dst=1.2.3.4")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad src: status %d, want 400", resp2.StatusCode)
	}
}

// TestQueryCoalescesConcurrentSingles is the daemon-level cache-warming
// property: N concurrent /v1/query requests for one cold pair must cost
// exactly one forward and one reverse tree build (one search a key), not
// N of each.
func TestQueryCoalescesConcurrentSingles(t *testing.T) {
	f := buildFixture(t, 202)
	_, ts := start(t, f, nil)
	src, dst := f.vps[1], f.targets[3]
	url := fmt.Sprintf("%s/v1/query?src=%s&dst=%s", ts.URL, ipStr(src), ipStr(dst))

	const n = 16
	startCh := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-startCh
			var res queryResult
			resp, err := http.Get(url)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				errs <- err
				return
			}
			if !res.Found {
				errs <- fmt.Errorf("no prediction for %s", url)
			}
		}()
	}
	close(startCh)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := f.client.CacheStats()
	if st.Builds != 2 {
		t.Fatalf("16 concurrent singles to one cold pair cost %d tree builds, want 2 (1 fwd + 1 rev)", st.Builds)
	}
	if st.Hits+st.Misses < 2*n {
		t.Fatalf("lookups = %d, want >= %d", st.Hits+st.Misses, 2*n)
	}
}

func batchLine(src, dst netsim.Prefix) string {
	return fmt.Sprintf(`{"src":%q,"dst":%q}`+"\n", ipStr(src), ipStr(dst))
}

// TestBatchStreamsIncrementally proves /v1/batch buffers neither the
// request nor the response: the client writes one window of pairs, reads
// that window's results while the request body is still open, and repeats.
// If the server buffered the full request (or full response), the first
// read would deadlock.
func TestBatchStreamsIncrementally(t *testing.T) {
	f := buildFixture(t, 203)
	_, ts := start(t, f, nil)
	const window = 4

	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", ts.URL+"/v1/batch?window=4", pr)
	if err != nil {
		t.Fatal(err)
	}

	writeWindow := func(k int) {
		for i := 0; i < window; i++ {
			src := f.vps[(k*window+i)%len(f.vps)]
			dst := f.targets[(k*window+i)%len(f.targets)]
			if _, err := io.WriteString(pw, batchLine(src, dst)); err != nil {
				t.Errorf("writing window %d: %v", k, err)
			}
		}
	}

	// First window goes out before Do returns (the server only commits
	// response headers once it has results to flush).
	go writeWindow(0)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)

	readWindow := func() []queryResult {
		out := make([]queryResult, 0, window)
		for i := 0; i < window; i++ {
			line, err := br.ReadBytes('\n')
			if err != nil {
				t.Fatalf("reading result %d: %v", i, err)
			}
			var res queryResult
			if err := json.Unmarshal(line, &res); err != nil {
				t.Fatalf("bad result line %q: %v", line, err)
			}
			if res.Error != "" {
				t.Fatalf("stream error: %s", res.Error)
			}
			out = append(out, res)
		}
		return out
	}

	for k := 0; k < 3; k++ {
		if k > 0 {
			writeWindow(k) // request body still open: interleaved round k
		}
		for i, res := range readWindow() {
			src := f.vps[(k*window+i)%len(f.vps)]
			dst := f.targets[(k*window+i)%len(f.targets)]
			want := f.client.QueryPrefix(src, dst)
			if res.Found != want.Found || res.RTTMS != want.RTTMS {
				t.Fatalf("round %d result %d: wire %+v != library %+v", k, i, res, want)
			}
		}
	}
	pw.Close()
	if _, err := br.ReadBytes('\n'); err != io.EOF {
		t.Fatalf("expected clean EOF after closing request body, got %v", err)
	}
}

// TestBatchHotReloadMidStream is the acceptance scenario: a 100k-pair
// streamed batch runs while a delta hot-reload swaps the atlas. Every
// result must be internally consistent (rtt == fwd + rev — no torn reads),
// the whole stream must answer from its pinned snapshot, and the daemon
// must serve the new day afterwards.
func TestBatchHotReloadMidStream(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-pair stream")
	}
	f := buildFixture(t, 204)
	s, ts := start(t, f, func(c *Config) { c.StreamWindow = 2048 })

	deltaPath := filepath.Join(t.TempDir(), "delta.bin")
	if err := os.WriteFile(deltaPath, f.delta, 0o644); err != nil {
		t.Fatal(err)
	}

	const nPairs = 120_000
	pr, pw := io.Pipe()
	go func() {
		defer pw.Close()
		bw := bufio.NewWriter(pw)
		for i := 0; i < nPairs; i++ {
			src := f.vps[i%len(f.vps)]
			dst := f.targets[i%len(f.targets)]
			if _, err := bw.WriteString(batchLine(src, dst)); err != nil {
				return // reader gone; the test will report it
			}
		}
		bw.Flush()
	}()

	req, err := http.NewRequest("POST", ts.URL+"/v1/batch", pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	reloaded := false
	got := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		var res queryResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("result %d: bad line %q: %v", got, sc.Text(), err)
		}
		if res.Error != "" {
			t.Fatalf("stream aborted after %d results: %s", got, res.Error)
		}
		if res.Found {
			if math.Abs(res.FwdMS+res.RevMS-res.RTTMS) > 1e-9 {
				t.Fatalf("result %d torn: fwd %v + rev %v != rtt %v", got, res.FwdMS, res.RevMS, res.RTTMS)
			}
			if res.LossRate < 0 || res.LossRate > 1 {
				t.Fatalf("result %d: loss %v out of range", got, res.LossRate)
			}
		}
		// The stream's snapshot is pinned at request start: every line
		// reports day 0 even after the reload lands.
		if res.Day != 0 {
			t.Fatalf("result %d answered from day %d, want pinned day 0", got, res.Day)
		}
		got++
		if !reloaded && got > nPairs/4 {
			reloaded = true
			if err := s.ApplyDeltaFile(deltaPath); err != nil {
				t.Fatalf("hot reload failed: %v", err)
			}
			if d := f.client.Day(); d != f.day1.Day {
				t.Fatalf("after reload client serves day %d, want %d", d, f.day1.Day)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if got != nPairs {
		t.Fatalf("streamed %d results, want %d", got, nPairs)
	}
	if !reloaded {
		t.Fatal("reload never happened")
	}

	// New requests see the new day.
	var health struct {
		Day int `json:"day"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Day != f.day1.Day {
		t.Fatalf("post-reload day = %d, want %d", health.Day, f.day1.Day)
	}
}

// TestBatchDeadlineAbortsStream: the producer stalls past the request's
// deadline between two windows; the stream must answer the first window,
// then end with an error line naming the deadline, and the daemon must
// keep serving.
func TestBatchDeadlineAbortsStream(t *testing.T) {
	f := buildFixture(t, 205)
	_, ts := start(t, f, nil)
	const window = 8

	pr, pw := io.Pipe()
	go func() {
		defer pw.Close()
		for i := 0; i < window; i++ {
			io.WriteString(pw, batchLine(f.vps[i%len(f.vps)], f.targets[i%len(f.targets)]))
		}
		time.Sleep(30 * time.Millisecond) // outlives the 10ms deadline
		for i := window; i < 2*window; i++ {
			io.WriteString(pw, batchLine(f.vps[i%len(f.vps)], f.targets[i%len(f.targets)]))
		}
	}()
	req, err := http.NewRequest("POST", ts.URL+"/v1/batch?deadline_ms=10&window=8", pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sawError := false
	results := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var res queryResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		if res.Error != "" {
			sawError = true
			if !strings.Contains(res.Error, "context deadline exceeded") {
				t.Fatalf("error line %q does not name the deadline", res.Error)
			}
			break
		}
		results++
	}
	if !sawError {
		t.Fatalf("stream completed (%d results) despite the expired deadline", results)
	}
	// Results arrive in whole windows: either the first window beat the
	// deadline or nothing did — never a torn window.
	if results != 0 && results != window {
		t.Fatalf("answered %d results before the deadline error, want 0 or %d", results, window)
	}
	// The daemon survives an aborted stream.
	var health struct {
		Status string `json:"status"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Status != "ok" {
		t.Fatalf("daemon unhealthy after aborted batch: %+v", health)
	}
}

// TestBatchWindowClamped: an absurd client-supplied window must not let
// one request size the daemon's buffers — it is clamped, the batch still
// answers, and what a stream allocates follows the lines it sends, not the
// window it names: two lines under the largest window cost the process
// well under the megabytes that window's buffers would.
func TestBatchWindowClamped(t *testing.T) {
	f := buildFixture(t, 210)
	_, ts := start(t, f, nil)
	for _, window := range []string{"2000000000", "65536", "65536"} {
		body := strings.NewReader(batchLine(f.vps[0], f.targets[0]) + batchLine(f.vps[1], f.targets[1]))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := http.Post(ts.URL+"/v1/batch?window="+window, "application/x-ndjson", body)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || strings.Contains(lines[0], "error") {
			t.Fatalf("clamped-window batch failed:\n%s", raw)
		}
		// The first request also pays for the connection and two trees.
		if got := after.TotalAlloc - before.TotalAlloc; window == "65536" && got > 256<<10 {
			t.Fatalf("a two-line batch with ?window=%s allocated %d KB, want under 256", window, got>>10)
		}
	}
}

func TestBatchMalformedLine(t *testing.T) {
	f := buildFixture(t, 206)
	_, ts := start(t, f, nil)
	body := strings.NewReader(batchLine(f.vps[0], f.targets[0]) + "this is not json\n")
	resp, err := http.Post(ts.URL+"/v1/batch?window=1", "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 1 result + 1 error:\n%s", len(lines), raw)
	}
	var last queryResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(last.Error, "line 2") {
		t.Fatalf("error %q does not name the offending line", last.Error)
	}
}

// TestRankEndpoint checks /v1/rank orders candidates exactly like the
// library's RankByRTT.
func TestRankEndpoint(t *testing.T) {
	f := buildFixture(t, 207)
	_, ts := start(t, f, nil)
	src := f.vps[2]
	cands := f.targets[:8]
	wantOrder := f.client.RankByRTT(src, cands)

	reqBody := rankRequest{Src: ipStr(src)}
	for _, c := range cands {
		reqBody.Candidates = append(reqBody.Candidates, ipStr(c))
	}
	raw, _ := json.Marshal(reqBody)
	resp, err := http.Post(ts.URL+"/v1/rank", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Ranked []rankedCandidate `json:"ranked"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Ranked) != len(cands) {
		t.Fatalf("ranked %d candidates, want %d", len(out.Ranked), len(cands))
	}
	for i, rc := range out.Ranked {
		if want := ipStr(wantOrder[i]); rc.IP != want {
			t.Fatalf("rank %d = %s, want %s (full: %+v)", i, rc.IP, want, out.Ranked)
		}
	}
}

// TestMetricsAndStats drives a few requests and checks both observability
// surfaces expose them.
func TestMetricsAndStats(t *testing.T) {
	f := buildFixture(t, 208)
	_, ts := start(t, f, nil)
	url := fmt.Sprintf("%s/v1/query?src=%s&dst=%s", ts.URL, ipStr(f.vps[0]), ipStr(f.targets[0]))
	for i := 0; i < 3; i++ {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	prom := string(raw)
	st := f.client.CacheStats()
	for _, w := range []string{
		`inanod_http_requests_total{handler="query"} 3`,
		`inanod_http_request_seconds_bucket{handler="query",le="+Inf"} 3`,
		fmt.Sprintf("inanod_tree_cache_builds %d", st.Builds),
		fmt.Sprintf("inanod_tree_cache_build_seconds %g", time.Duration(st.BuildNS).Seconds()),
		fmt.Sprintf("inanod_tree_cache_resident %d", st.Len),
		fmt.Sprintf("inanod_tree_cache_bytes %d", st.Bytes),
		fmt.Sprintf("inanod_tree_cache_suspended %d", st.Suspended),
		"inanod_atlas_day 0",
		"inanod_http_inflight",
		"inanod_atlas_reloads_total 0",
	} {
		if !strings.Contains(prom, w) {
			t.Errorf("/metrics missing %q", w)
		}
	}

	var stats struct {
		TreeCache struct {
			Builds      uint64  `json:"builds"`
			Bytes       int64   `json:"bytes"`
			Suspended   int     `json:"suspended"`
			BuildMeanUS float64 `json:"build_us_mean"`
			HitRatio    float64 `json:"hit_ratio"`
		} `json:"tree_cache"`
		HTTP map[string]struct {
			Requests uint64 `json:"requests"`
		} `json:"http"`
	}
	getJSON(t, ts.URL+"/debug/stats", &stats)
	if stats.TreeCache.Builds != st.Builds {
		t.Errorf("stats builds = %d, want %d", stats.TreeCache.Builds, st.Builds)
	}
	if st.Bytes == 0 || stats.TreeCache.Bytes != st.Bytes || stats.TreeCache.Suspended != st.Suspended {
		t.Errorf("stats bytes = %d, suspended = %d, want %d and %d", stats.TreeCache.Bytes, stats.TreeCache.Suspended, st.Bytes, st.Suspended)
	}
	if want := float64(st.BuildNS) / 1e3 / float64(st.Builds); st.Builds == 0 || st.BuildNS <= 0 ||
		math.Abs(stats.TreeCache.BuildMeanUS-want) > 1e-6*want {
		t.Errorf("stats build_us_mean = %v, want %v (%d ns over %d builds)", stats.TreeCache.BuildMeanUS, want, st.BuildNS, st.Builds)
	}
	if stats.HTTP["query"].Requests != 3 {
		t.Errorf("stats query requests = %d, want 3", stats.HTTP["query"].Requests)
	}
}

// TestWatchDeltaFile drops a delta file and waits for the poller to apply
// it copy-on-write.
func TestWatchDeltaFile(t *testing.T) {
	f := buildFixture(t, 209)
	s, _ := start(t, f, nil)
	dir := t.TempDir()
	deltaPath := filepath.Join(dir, "delta.bin")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.WatchDeltaFile(ctx, deltaPath, 10*time.Millisecond)
	}()

	time.Sleep(30 * time.Millisecond) // a few polls with no file: no-op
	if err := os.WriteFile(deltaPath, f.delta, 0o644); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.client.Day() != f.day1.Day {
		if time.Now().After(deadline) {
			t.Fatalf("watcher did not apply the delta (still day %d)", f.client.Day())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if s.reloads.Value() != 1 {
		t.Fatalf("reloads = %d, want 1", s.reloads.Value())
	}

	// Re-writing the same delta now mismatches FromDay: counted as an
	// error, daemon unaffected.
	if err := os.WriteFile(deltaPath, f.delta, 0o644); err != nil {
		t.Fatal(err)
	}
	for s.reloadErrors.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stale delta was not counted as a reload error")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if f.client.Day() != f.day1.Day {
		t.Fatalf("stale delta changed the serving day to %d", f.client.Day())
	}
	cancel()
	<-done
}

// TestReloadWarmsTreeCache: a reload logs how many trees it sets out to
// rebuild, the client rebuilds them behind the publish, and once traffic
// has come back both /metrics and /debug/stats show the rebuilt trees and
// that they were asked for.
func TestReloadWarmsTreeCache(t *testing.T) {
	f := buildFixture(t, 212)
	var mu sync.Mutex
	var logged []string
	s, ts := start(t, f, func(c *Config) {
		c.Logf = func(format string, args ...any) {
			mu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			mu.Unlock()
		}
	})
	traffic := func() {
		for _, dst := range f.targets[:24] {
			resp, err := http.Get(fmt.Sprintf("%s/v1/query?src=%s&dst=%s", ts.URL, ipStr(f.vps[0]), ipStr(dst)))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	traffic()
	resident := f.client.CacheStats().Len
	deltaPath := filepath.Join(t.TempDir(), "delta.bin")
	if err := os.WriteFile(deltaPath, f.delta, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyDeltaFile(deltaPath); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if want := fmt.Sprintf("; rebuilding up to %d resident trees", resident); len(logged) != 1 || resident == 0 || !strings.HasSuffix(logged[0], want) {
		t.Errorf("reload logged %q, want one line ending %q", logged, want)
	}
	mu.Unlock()
	deadline := time.Now().Add(10 * time.Second)
	for f.client.CacheStats().Warmed < uint64(resident) {
		if time.Now().After(deadline) {
			t.Fatalf("warmer not done: %+v of %d trees", f.client.CacheStats(), resident)
		}
		time.Sleep(time.Millisecond)
	}
	traffic()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	st := f.client.CacheStats()
	if st.WarmHits == 0 || st.Builds < st.Warmed {
		t.Fatalf("traffic after the reload hit no warmed tree: %+v", st)
	}
	for _, w := range []string{
		fmt.Sprintf("inanod_tree_cache_warmed %d\n", st.Warmed),
		fmt.Sprintf("inanod_tree_cache_warm_hits %d\n", st.WarmHits),
		fmt.Sprintf("inanod_tree_cache_builds %d\n", st.Builds),
	} {
		if !strings.Contains(string(raw), w) {
			t.Errorf("/metrics missing %q", w)
		}
	}
	var stats struct {
		TreeCache struct {
			Warmed   uint64 `json:"warmed"`
			WarmHits uint64 `json:"warm_hits"`
		} `json:"tree_cache"`
	}
	getJSON(t, ts.URL+"/debug/stats", &stats)
	if stats.TreeCache.Warmed != st.Warmed || stats.TreeCache.WarmHits != st.WarmHits {
		t.Errorf("/debug/stats tree_cache %+v, want warmed %d warm_hits %d", stats.TreeCache, st.Warmed, st.WarmHits)
	}
}

// BenchmarkQueryRoundTrip prices one warm GET /v1/query over a loopback
// connection, client and server together. Its allocations are the whole
// process's: read them against the handler's own (the ledger's
// server.allocs_per_query) for what net/http and the client add around it.
func BenchmarkQueryRoundTrip(b *testing.B) {
	f := buildFixture(b, 212)
	_, ts := start(b, f, nil)
	client := ts.Client()
	var urls []string
	for i := 0; i < 64; i++ {
		urls = append(urls, fmt.Sprintf("%s/v1/query?src=%s&dst=%s",
			ts.URL, ipStr(f.vps[i%len(f.vps)]), ipStr(f.targets[(i*7)%len(f.targets)])))
	}
	get := func(url string) {
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("GET %s: %s", url, resp.Status)
		}
	}
	for _, url := range urls {
		get(url) // warm the trees and the connection
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get(urls[i%len(urls)])
	}
}
