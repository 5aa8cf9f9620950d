package server

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	inano "inano"
	"inano/internal/api"
	"inano/internal/atlas"
	"inano/internal/cluster"
	"inano/internal/netsim"
	"inano/internal/tcpmodel"
	"inano/sim"
)

// fixture is a served world: a client over day 0's atlas plus the encoded
// day 0 -> day 1 delta for reload tests.
type fixture struct {
	client  *inano.Client
	vps     []netsim.Prefix
	targets []netsim.Prefix
	delta   []byte
	day0    *atlas.Atlas // the client's atlas, in map form
	day1    *atlas.Atlas
}

// queryPair answers one pair on snap under the background context, which
// never ends, so there is no error to look at.
func queryPair(snap inano.Snapshot, src, dst netsim.Prefix) inano.PathInfo {
	info, _ := snap.Query(context.Background(), src, dst)
	return info
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
		day0:    a0,
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
	return s, serve(t, s.Handler())
}

// serve serves h for the test, and fails the test if the HTTP server logs
// anything: a recovered panic, a connection it could not serve.
func serve(t testing.TB, h http.Handler) *httptest.Server {
	ts := httptest.NewUnstartedServer(h)
	var errs lockedBuffer
	ts.Config.ErrorLog = log.New(&errs, "", 0)
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		if errs.String() != "" {
			t.Errorf("the server logged:\n%s", errs.String())
		}
	})
	return ts
}

// lockedBuffer is a bytes.Buffer for a logger shared by a server's
// connections.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
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
	want := queryPair(f.client.Snapshot(), src, dst)

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

// paddedBody is a JSON object whose leading "pad" string makes it exactly
// size bytes long, rest being the object's other members.
func paddedBody(size int, rest string) string {
	skel := `{"pad":"",` + rest + `}`
	return `{"pad":"` + strings.Repeat("x", size-len(skel)) + `",` + rest + `}`
}

// postPadded POSTs paddedBody(size, rest) to url and returns the status.
func postPadded(t *testing.T, url string, size int, rest string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(paddedBody(size, rest)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestQueryBodyCap: a /v1/query POST body is one request line, so a body
// past api.MaxLineBytes is a bad request even when the one JSON value
// it carries would parse; at the cap it is answered.
func TestQueryBodyCap(t *testing.T) {
	f := buildFixture(t, 201)
	_, ts := start(t, f, nil)
	rest := fmt.Sprintf(`"src":%q,"dst":%q`, ipStr(f.vps[0]), ipStr(f.targets[7]))
	for size, want := range map[int]int{
		api.MaxLineBytes:     http.StatusOK,
		api.MaxLineBytes + 1: http.StatusBadRequest,
	} {
		if got := postPadded(t, ts.URL+"/v1/query", size, rest); got != want {
			t.Errorf("%d-byte body: status %d, want %d", size, got, want)
		}
	}
}

// TestQueryBodyIsOneLine: a /v1/query POST body is one /v1/batch request
// line. Any spelling encoding/json takes is answered as the canonical line
// is, the echo being the address printed; deadline_ms 0 means none, and a
// negative one is refused as on a batch line.
func TestQueryBodyIsOneLine(t *testing.T) {
	f := buildFixture(t, 201)
	_, ts := start(t, f, nil)
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(out)
	}
	src, dst := ipStr(f.vps[0]), ipStr(f.targets[7])
	code, want := post(fmt.Sprintf(`{"src":%q,"dst":%q}`, src, dst))
	if code != http.StatusOK || !strings.HasPrefix(want, fmt.Sprintf(`{"src":%q,"dst":%q,"found":true`, src, dst)) {
		t.Fatalf("canonical body: status %d, %s", code, want)
	}
	for _, body := range []string{
		fmt.Sprintf(`{"src":%q,"dst":%q,"deadline_ms":0}`, src, dst),
		fmt.Sprintf(`{"src":%q,"dst":%q,"deadline_ms":60000}`, src, dst),
		fmt.Sprintf(" {\"dst\": %q, \"src\": %q}\n", dst, src),
		fmt.Sprintf(`{"src":"%s","dst":%q}`, strings.Replace(src, ".", `\u002e`, 1), dst),
	} {
		if code, got := post(body); code != http.StatusOK || got != want {
			t.Errorf("body %q: status %d, %s; want 200, %s", body, code, got, want)
		}
	}
	for body, msg := range map[string]string{
		fmt.Sprintf(`{"src":%q,"dst":%q,"deadline_ms":-1}`, src, dst): `bad deadline_ms \"-1\"`,
		fmt.Sprintf(`{"src":"+1.2.3.4","dst":%q}`, dst):               `src: bad IPv4 address \"+1.2.3.4\"`,
	} {
		if code, got := post(body); code != http.StatusBadRequest || got != `{"error":"`+msg+`"}`+"\n" {
			t.Errorf("body %q: status %d, %s; want 400 and %q", body, code, got, msg)
		}
	}
}

// TestHugeDeadlineIsNone: a per-pair deadline_ms past what a
// time.Duration holds is as good as none, on a /v1/batch line and a
// /v1/query body alike, instead of wrapping into the past and expiring the
// pair at once.
func TestHugeDeadlineIsNone(t *testing.T) {
	f := buildFixture(t, 202)
	_, ts := start(t, f, nil)
	src, dst := ipStr(f.vps[1]), ipStr(f.targets[3])
	plain := fmt.Sprintf(`{"src":%q,"dst":%q}`, src, dst)
	huge := fmt.Sprintf(`{"src":%q,"dst":%q,"deadline_ms":9999999999999}`, src, dst)
	if a, b := postBatch(t, ts.URL+"/v1/batch", strings.NewReader(plain)), postBatch(t, ts.URL+"/v1/batch", strings.NewReader(huge)); a != b {
		t.Errorf("batch line with a huge deadline answered %s, without one %s", b, a)
	}
	if a, b := postBatch(t, ts.URL+"/v1/query", strings.NewReader(plain)), postBatch(t, ts.URL+"/v1/query", strings.NewReader(huge)); a != b {
		t.Errorf("query with a huge deadline answered %s, without one %s", b, a)
	}
}

// TestRankBodyCap: a /v1/rank body past api.MaxRankBytes is a bad
// request; at the cap it is answered.
func TestRankBodyCap(t *testing.T) {
	f := buildFixture(t, 207)
	_, ts := start(t, f, nil)
	rest := fmt.Sprintf(`"src":%q,"candidates":[%q,%q]`, ipStr(f.vps[2]), ipStr(f.targets[0]), ipStr(f.targets[1]))
	for size, want := range map[int]int{
		api.MaxRankBytes:     http.StatusOK,
		api.MaxRankBytes + 1: http.StatusBadRequest,
	} {
		if got := postPadded(t, ts.URL+"/v1/rank", size, rest); got != want {
			t.Errorf("%d-byte body: status %d, want %d", size, got, want)
		}
	}
}

// TestRankBodyIsOneValue: a /v1/rank body is one JSON value, as a
// /v1/query POST body is; bytes after it are refused, space is not.
func TestRankBodyIsOneValue(t *testing.T) {
	f := buildFixture(t, 207)
	_, ts := start(t, f, nil)
	body := fmt.Sprintf(`{"src":%q,"candidates":[%q,%q]}`, ipStr(f.vps[2]), ipStr(f.targets[0]), ipStr(f.targets[1]))
	for rest, want := range map[string]string{
		"\n ":       "",
		" trailing": `{"error":"bad request body: invalid character 't' after top-level value"}` + "\n",
		`{}`:        `{"error":"bad request body: invalid character '{' after top-level value"}` + "\n",
	} {
		resp, err := http.Post(ts.URL+"/v1/rank", "application/json", strings.NewReader(body+rest))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if want == "" && resp.StatusCode != http.StatusOK || want != "" && (resp.StatusCode != http.StatusBadRequest || string(got) != want) {
			t.Errorf("body + %q: status %d, %s; want %q", rest, resp.StatusCode, got, want)
		}
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
			want := queryPair(f.client.Snapshot(), src, dst)
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
			if d := f.client.Snapshot().Day(); d != f.day1.Day {
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

// TestBatchLineCap: a request line may be 64 KiB long, newline included
// (api.MaxLineBytes); one byte more ends the stream with the
// terminal line, from a replica and from a router over it. The stream that
// ends there leaves body bytes unread, and the connection then serves the
// next request: the servers' error logs stay empty (serve), where net/http
// used to log a recovered panic ("invalid concurrent Body.Read call") and
// drop the connection.
func TestBatchLineCap(t *testing.T) {
	f := buildFixture(t, 206)
	_, ts := start(t, f, nil)
	rt, err := cluster.NewRouter(cluster.RouterConfig{Nodes: []string{ts.URL}, ClusterOf: atlas.Compile(f.day0).ClusterOf, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	routed := serve(t, rt.Handler())
	line := batchLine(f.vps[0], f.targets[0])
	for _, url := range []string{ts.URL, routed.URL} {
		for _, over := range []int{0, 1, 0} {
			body := strings.Repeat(" ", 64<<10-len(line)+over) + line
			resp, err := http.Post(url+"/v1/batch", "application/x-ndjson", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			var got queryResult
			if err := json.Unmarshal(bytes.TrimSpace(raw), &got); err != nil {
				t.Fatalf("%s, %d bytes over the cap: want one line, got %q", url, over, raw)
			}
			if failed := got.Error != ""; failed != (over > 0) {
				t.Fatalf("%s, %d bytes over the cap: answer %+v", url, over, got)
			}
		}
	}
}

// rankRequest is a /v1/rank body.
type rankRequest struct {
	Src        string   `json:"src"`
	Candidates []string `json:"candidates"`
	SizeBytes  int      `json:"size_bytes"`
}

// TestRankEndpoint checks /v1/rank orders candidates by predicted RTT:
// the predictable ones cheapest first, equal RTTs and the unpredictable
// tail in input order.
func TestRankEndpoint(t *testing.T) {
	f := buildFixture(t, 207)
	_, ts := start(t, f, nil)
	src := f.vps[2]
	cands := f.targets[:8]
	wantOrder := slices.Clone(cands)
	rtt := func(p netsim.Prefix) float64 {
		if info := queryPair(f.client.Snapshot(), src, p); info.Found {
			return info.RTTMS
		}
		return math.Inf(1)
	}
	slices.SortStableFunc(wantOrder, func(a, b netsim.Prefix) int { return cmp.Compare(rtt(a), rtt(b)) })

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

// TestRankTransferTies: with size_bytes, two candidates whose predicted
// transfer times are equal come back lower prefix first, even when the request lists them the other way round.
func TestRankTransferTies(t *testing.T) {
	const size = 1_500_000
	f := buildFixture(t, 42)
	_, ts := start(t, f, nil)
	src := f.vps[0]
	// The first pair of candidates with equal transfer times, listed higher
	// prefix first.
	var cands []netsim.Prefix
	seen := map[float64]netsim.Prefix{}
	for _, p := range f.targets {
		info := queryPair(f.client.Snapshot(), src, p)
		if !info.Found || p == src {
			continue
		}
		ms := tcpmodel.TransferTimeMS(size, info.RTTMS, info.LossRate, tcpmodel.DefaultParams())
		if q, ok := seen[ms]; ok {
			cands = []netsim.Prefix{max(p, q), min(p, q)}
			break
		}
		seen[ms] = p
	}
	if cands == nil {
		t.Fatal("no two candidates tie on transfer time in this world")
	}
	want := []netsim.Prefix{cands[1], cands[0]} // the lower prefix first

	raw, _ := json.Marshal(rankRequest{Src: ipStr(src), Candidates: []string{ipStr(cands[0]), ipStr(cands[1])}, SizeBytes: size})
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
	if len(out.Ranked) != 2 || out.Ranked[0].TransferMS != out.Ranked[1].TransferMS {
		t.Fatalf("want two tied candidates, got %+v", out.Ranked)
	}
	for i, rc := range out.Ranked {
		if rc.IP != ipStr(want[i]) {
			t.Fatalf("rank %d = %s, want %s (the lower prefix first; full: %+v)", i, rc.IP, ipStr(want[i]), out.Ranked)
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

	// /debug/stats is the same registry as JSON: a series' name, with its
	// labels, is its key; the mean build is the quotient of two series.
	var stats map[string]any
	getJSON(t, ts.URL+"/debug/stats", &stats)
	for key, want := range map[string]float64{
		"inanod_tree_cache_builds":                    float64(st.Builds),
		"inanod_tree_cache_bytes":                     float64(st.Bytes),
		"inanod_tree_cache_suspended":                 float64(st.Suspended),
		`inanod_http_requests_total{handler="query"}`: 3,
		"inanod_atlas_clusters":                       float64(f.client.Snapshot().AtlasStats().Clusters),
	} {
		if stats[key] != want {
			t.Errorf("stats %s = %v, want %v", key, stats[key], want)
		}
	}
	if st.Bytes == 0 {
		t.Errorf("tree cache reports 0 bytes after serving queries (%d resident)", st.Len)
	}
	if h, _ := stats[`inanod_http_request_seconds{handler="query"}`].(map[string]any); h["count"] != 3.0 {
		t.Errorf("stats query latency histogram = %v, want count 3", h)
	}
	buildSeconds, _ := stats["inanod_tree_cache_build_seconds"].(float64)
	builds, _ := stats["inanod_tree_cache_builds"].(float64)
	if want := float64(st.BuildNS) / 1e3 / float64(st.Builds); st.Builds == 0 || st.BuildNS <= 0 ||
		math.Abs(buildSeconds*1e6/builds-want) > 1e-6*want {
		t.Errorf("stats build_seconds/builds = %v µs, want %v (%d ns over %d builds)", buildSeconds*1e6/builds, want, st.BuildNS, st.Builds)
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
	for f.client.Snapshot().Day() != f.day1.Day {
		if time.Now().After(deadline) {
			t.Fatalf("watcher did not apply the delta (still day %d)", f.client.Snapshot().Day())
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
	if f.client.Snapshot().Day() != f.day1.Day {
		t.Fatalf("stale delta changed the serving day to %d", f.client.Snapshot().Day())
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
	roll, _ := f.client.LastRoll()
	var stats map[string]any
	getJSON(t, ts.URL+"/debug/stats", &stats)
	for key, want := range map[string]float64{
		"inanod_tree_cache_warmed":                         float64(st.Warmed),
		"inanod_tree_cache_warm_hits":                      float64(st.WarmHits),
		"inanod_reload_from_day":                           float64(roll.FromDay),
		"inanod_atlas_day":                                 float64(roll.ToDay),
		`inanod_reload_changes{change="links_added"}`:      float64(roll.LinksAdded),
		`inanod_reload_changes{change="links_removed"}`:    float64(roll.LinksRemoved),
		`inanod_reload_changes{change="prefixes_rehomed"}`: float64(roll.PrefixesRehomed),
	} {
		if stats[key] != want {
			t.Errorf("/debug/stats %s = %v, want %v", key, stats[key], want)
		}
	}
	if roll.LinksChanged() == 0 {
		t.Errorf("the fixture's roll changed no link: %+v", roll)
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
