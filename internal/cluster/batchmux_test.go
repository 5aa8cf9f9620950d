package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"inano/internal/netsim"
)

type batchAnswer struct {
	Src   string `json:"src"`
	Dst   string `json:"dst"`
	Found bool   `json:"found"`
	Day   int    `json:"day"`
	Error string `json:"error"`
}

// runBatch streams lines through the router's /v1/batch and returns the
// decoded answer lines in arrival order.
func runBatch(t *testing.T, url string, lines []string) []batchAnswer {
	t.Helper()
	pr, pw := io.Pipe()
	go func() {
		for _, l := range lines {
			if _, err := io.WriteString(pw, l+"\n"); err != nil {
				return
			}
		}
		pw.Close()
	}()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/batch", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var out []batchAnswer
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var a batchAnswer
		if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
			t.Fatalf("unparseable answer line %q: %v", sc.Text(), err)
		}
		out = append(out, a)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func batchLine(i int) string {
	return fmt.Sprintf(`{"src":"10.0.0.1","dst":%q}`, dstForIndex(i))
}

func TestBatchReassemblesInOrderAcrossReplicas(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t, 0), newFakeReplica(t, 1), newFakeReplica(t, 2)}
	rt, ts := newTestRouter(t, replicas, func(cfg *RouterConfig) {
		cfg.Window = 8 // a small window, so the stream is many of them
	})

	const n = 120
	var lines []string
	for i := 0; i < n; i++ {
		lines = append(lines, batchLine(i))
	}
	answers := runBatch(t, ts.URL, lines)
	if len(answers) != n {
		t.Fatalf("got %d answers, want %d", len(answers), n)
	}
	perReplica := make(map[int]int)
	for i, a := range answers {
		if a.Error != "" {
			t.Fatalf("answer %d: unexpected error %q", i, a.Error)
		}
		if a.Dst != dstForIndex(i) {
			t.Fatalf("answer %d out of order: dst %q, want %q", i, a.Dst, dstForIndex(i))
		}
		// Each line must have been answered by its ring owner.
		ip, _ := netsim.ParseIPv4(a.Dst)
		want := replicaByURL(replicas, rt.Ring().Owner(KeyForCluster(ClusterID(ip>>8)))).id
		if a.Day != want {
			t.Fatalf("answer %d served by replica %d, owner is %d", i, a.Day, want)
		}
		perReplica[a.Day]++
	}
	if len(perReplica) != 3 {
		t.Fatalf("only %d replicas served batch lines: %v", len(perReplica), perReplica)
	}
	if got := rt.batchLines.Value(); got != n {
		t.Fatalf("batch_lines metric = %d, want %d", got, n)
	}
}

// TestBatchRetriesOnMidStreamDeath kills one replica after a few answers
// and asserts every pair is still answered exactly once, in order, with the
// dead replica's unanswered lines — and only those — re-routed.
func TestBatchRetriesOnMidStreamDeath(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t, 0), newFakeReplica(t, 1), newFakeReplica(t, 2)}
	rt, ts := newTestRouter(t, replicas, func(cfg *RouterConfig) {
		cfg.Window = 8
	})
	// Replica 0 dies for good once it has answered 3 batch lines.
	replicas[0].dieAfterBatchLines.Store(3)

	const n = 90
	var lines []string
	for i := 0; i < n; i++ {
		lines = append(lines, batchLine(i))
	}
	answers := runBatch(t, ts.URL, lines)
	if len(answers) != n {
		t.Fatalf("got %d answers, want %d", len(answers), n)
	}
	fromDead := 0
	for i, a := range answers {
		if a.Error != "" {
			t.Fatalf("answer %d: error %q", i, a.Error)
		}
		if a.Dst != dstForIndex(i) {
			t.Fatalf("answer %d out of order: dst %q, want %q", i, a.Dst, dstForIndex(i))
		}
		if a.Day == 0 {
			fromDead++
		}
	}
	if fromDead != 3 {
		t.Fatalf("%d answers came from the dead replica, want the 3 it gave before it died", fromDead)
	}
	// Delivered exactly once: a line whose answer fully arrived is not sent
	// again, so the replicas answered n lines between them, and the router
	// sent n plus the re-sent ones.
	var answered int64
	for _, f := range replicas {
		answered += f.batchLines.Load()
	}
	if answered != n {
		t.Fatalf("the replicas answered %d lines for a stream of %d", answered, n)
	}
	retried := rt.batchRetry.Value()
	if retried == 0 {
		t.Fatal("no batch retries recorded though a replica died mid-stream")
	}
	if got := rt.batchLines.Value(); got != n+retried {
		t.Fatalf("batch_lines metric = %d, want %d lines + %d re-sent", got, n, retried)
	}
	// The dead replica must be out of the ring.
	if rt.Ring().Len() != 2 {
		t.Fatalf("ring has %d nodes, want 2 after mid-stream death", rt.Ring().Len())
	}
}

// TestBatchRunsOutOfReplicas: every replica dies mid-stream, each after a
// few answers. The client gets the answered prefix in order and then the
// terminal line naming the first pair nobody was left to answer; the stream
// counts once in inano_router_no_replica_total, as a single query that ran
// out of replicas does; and each replica left the ring once.
func TestBatchRunsOutOfReplicas(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t, 0), newFakeReplica(t, 1), newFakeReplica(t, 2)}
	var ejected atomic.Int32
	rt, ts := newTestRouter(t, replicas, func(cfg *RouterConfig) {
		cfg.Window = 8
		cfg.Logf = func(format string, args ...any) {
			if strings.Contains(format, "out of ring") {
				ejected.Add(1)
			}
		}
	})
	const each = 5
	for _, f := range replicas {
		f.dieAfterBatchLines.Store(each)
	}
	const n = 90
	var lines []string
	for i := 0; i < n; i++ {
		lines = append(lines, batchLine(i))
	}
	answers := runBatch(t, ts.URL, lines)
	got := len(answers) - 1
	if got < 1 || got > each*len(replicas) {
		t.Fatalf("%d lines came back from replicas that answer %d lines each", len(answers), each)
	}
	for i, a := range answers[:got] {
		if a.Error != "" || a.Dst != dstForIndex(i) {
			t.Fatalf("answer %d of the prefix: dst %q error %q, want %q", i, a.Dst, a.Error, dstForIndex(i))
		}
	}
	if want := fmt.Sprintf("batch aborted after %d results: no live replica for pair %d", got, got); answers[got].Error != want {
		t.Fatalf("terminal line %+v, want error %q", answers[got], want)
	}
	if v := rt.noReplica.Value(); v != 1 {
		t.Fatalf("inano_router_no_replica_total = %d after one stream ran out of replicas, want 1", v)
	}
	if rt.Ring().Len() != 0 || int(ejected.Load()) != len(replicas) || rt.reshards.Value() != uint64(len(replicas)) {
		t.Fatalf("ring has %d nodes after %d ejections and %d reshards, want 0 after one each for %d replicas",
			rt.Ring().Len(), ejected.Load(), rt.reshards.Value(), len(replicas))
	}
}

// TestBatchRetryAfterInputEOF: one replica swallows its whole group and
// answers nothing — a 200 with an empty body, once it has read the
// sub-request to its end. Every line it was sent is re-sent to the two
// survivors, which (like a real inanod) answer only at a full window or at
// body EOF: a sub-request is a complete body whose window is its size, so
// they answer at once and the stream, all of it one window, does not hang.
func TestBatchRetryAfterInputEOF(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t, 0), newFakeReplica(t, 1), newFakeReplica(t, 2)}
	for _, f := range replicas {
		f.windowed.Store(true)
	}
	replicas[0].stallUntilEOF.Store(true)
	rt, ts := newTestRouter(t, replicas, func(cfg *RouterConfig) {
		cfg.Window = 60 // all input fits in one window: client EOF precedes the failure
	})

	const n = 40
	var lines []string
	for i := 0; i < n; i++ {
		lines = append(lines, batchLine(i))
	}
	done := make(chan []batchAnswer, 1)
	go func() { done <- runBatch(t, ts.URL, lines) }()
	var answers []batchAnswer
	select {
	case answers = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("batch hung: the re-sent lines were never answered")
	}
	if len(answers) != n {
		t.Fatalf("got %d answers, want %d", len(answers), n)
	}
	for i, a := range answers {
		if a.Error != "" {
			t.Fatalf("answer %d: error %q", i, a.Error)
		}
		if a.Dst != dstForIndex(i) {
			t.Fatalf("answer %d out of order: dst %q, want %q", i, a.Dst, dstForIndex(i))
		}
		if a.Day == 0 {
			t.Fatalf("answer %d claims the stalled replica served it", i)
		}
	}
	if rt.batchRetry.Value() == 0 {
		t.Fatal("no batch retries recorded though a replica swallowed its sub-batch")
	}
	if rt.Ring().Len() != 2 {
		t.Fatalf("ring has %d nodes, want 2 after the stalled replica failed", rt.Ring().Len())
	}
}

func TestBatchInputErrorTerminalLine(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t, 0)}
	_, ts := newTestRouter(t, replicas, nil)

	answers := runBatch(t, ts.URL, []string{
		batchLine(0),
		batchLine(1),
		`{"src":"10.0.0.1","dst":"not-an-ip"}`,
	})
	if len(answers) != 3 {
		t.Fatalf("got %d lines, want 2 answers + 1 terminal error", len(answers))
	}
	for i := 0; i < 2; i++ {
		if answers[i].Error != "" || answers[i].Dst != dstForIndex(i) {
			t.Fatalf("line %d: %+v", i, answers[i])
		}
	}
	term := answers[2]
	if term.Src != "" || term.Error == "" {
		t.Fatalf("terminal line: %+v", term)
	}
	// Same shape a single inanod would emit for the same bad input.
	if want := `line 3: dst: bad IPv4 address "not-an-ip"`; term.Error != want {
		t.Fatalf("terminal error %q, want %q", term.Error, want)
	}
}

func TestBatchEmptyStream(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t, 0)}
	_, ts := newTestRouter(t, replicas, nil)
	answers := runBatch(t, ts.URL, nil)
	if len(answers) != 0 {
		t.Fatalf("empty batch produced %d lines", len(answers))
	}
}

// TestBatchStreamsIncrementally proves answers flow before the client
// closes its request stream: with ?window=1, send one pair and read its
// answer while the request body is still open. With the default window the
// router, like inanod, answers at a full window or at EOF.
func TestBatchStreamsIncrementally(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t, 0), newFakeReplica(t, 1)}
	_, ts := newTestRouter(t, replicas, nil)

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch?window=1", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	type res struct {
		resp *http.Response
		err  error
	}
	resCh := make(chan res, 1)
	go func() {
		r, err := http.DefaultClient.Do(req)
		resCh <- res{r, err}
	}()

	if _, err := io.WriteString(pw, batchLine(0)+"\n"); err != nil {
		t.Fatal(err)
	}
	var r res
	select {
	case r = <-resCh:
	case <-time.After(10 * time.Second):
		t.Fatal("no response headers while request stream open")
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	defer r.resp.Body.Close()

	br := bufio.NewReader(r.resp.Body)
	lineCh := make(chan string, 1)
	go func() {
		line, _ := br.ReadString('\n')
		lineCh <- line
	}()
	var first string
	select {
	case first = <-lineCh:
	case <-time.After(10 * time.Second):
		t.Fatal("no answer line while request stream open")
	}
	var a batchAnswer
	if err := json.Unmarshal([]byte(first), &a); err != nil || a.Dst != dstForIndex(0) {
		t.Fatalf("first answer %q (err %v)", first, err)
	}

	// Close out cleanly: one more pair, then EOF.
	if _, err := io.WriteString(pw, batchLine(1)+"\n"); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rest), dstForIndex(1)) {
		t.Fatalf("second answer missing from %q", rest)
	}
}

// recWriter is a ResponseWriter for driving the router's handler without a
// front connection: full duplex, and a count of its Writes and Flushes.
type recWriter struct {
	header          http.Header
	code            int
	body            bytes.Buffer
	writes, flushes int
}

func newRecWriter() *recWriter { return &recWriter{header: make(http.Header), code: http.StatusOK} }

func (w *recWriter) Header() http.Header         { return w.header }
func (w *recWriter) WriteHeader(code int)        { w.code = code }
func (w *recWriter) EnableFullDuplex() error     { return nil }
func (w *recWriter) FlushError() error           { w.flushes++; return nil }
func (w *recWriter) Write(p []byte) (int, error) { w.writes++; return w.body.Write(p) }

func batchBody(n int) *strings.Reader {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(batchLine(i) + "\n")
	}
	return strings.NewReader(b.String())
}

// TestBatchHonoursWindow: ?window= means to the router what it means to a
// replica — same validation and 400 text, the default without it, one Write
// and one Flush a window — and a sub-request asks its replica for a window
// of exactly its own size, so the replica answers it in one.
func TestBatchHonoursWindow(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t, 0), newFakeReplica(t, 1), newFakeReplica(t, 2)}
	for _, f := range replicas {
		f.windowed.Store(true)
	}
	rt, _ := newTestRouter(t, replicas, nil) // Window: 16
	h := rt.Handler()
	const n = 83
	sent := int64(0)
	for _, tc := range []struct {
		query   string
		windows int
	}{{"", 6}, {"?window=5", 17}, {"?window=83", 1}, {"?window=1000000000", 1}} {
		w := newRecWriter()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/batch"+tc.query, batchBody(n)))
		if got := strings.Count(w.body.String(), "\n"); got != n || strings.Contains(w.body.String(), `"error"`) {
			t.Fatalf("%q: %d lines answered of %d: %.200s", tc.query, got, n, w.body.String())
		}
		if w.writes != tc.windows || w.flushes != tc.windows {
			t.Fatalf("%q: %d writes and %d flushes, want %d of each", tc.query, w.writes, w.flushes, tc.windows)
		}
		sent += n
		var asked, reqs int64
		for _, f := range replicas {
			asked += f.windowSum.Load()
			reqs += f.batchReqs.Load()
		}
		if asked != sent {
			t.Fatalf("%q: the sub-requests' windows add up to %d, the lines sent to %d", tc.query, asked, sent)
		}
		if tc.windows == 1 && reqs > 3 {
			t.Fatalf("%q: %d sub-requests for one window over 3 replicas", tc.query, reqs)
		}
		for _, f := range replicas {
			f.batchReqs.Store(0)
		}
	}
	for _, bad := range []string{"0", "-4", "many"} {
		w := newRecWriter()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/batch?window="+bad, batchBody(3)))
		if want := fmt.Sprintf("{\"error\":\"bad window \\\"%s\\\"\"}\n", bad); w.code != http.StatusBadRequest || w.body.String() != want {
			t.Fatalf("?window=%s: %d %q, want 400 %q", bad, w.code, w.body.String(), want)
		}
	}
}

// TestBatchDeadlineEjectsNoReplica: the request's deadline is the router's.
// A stream cut off by it ends with a replica's own terminal line, counting
// the lines written, and costs no replica its place in the ring — one
// client's ?deadline_ms=1 must not take the tier down. A bad deadline is a
// replica's 400.
func TestBatchDeadlineEjectsNoReplica(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t, 0), newFakeReplica(t, 1), newFakeReplica(t, 2)}
	client := &http.Client{Transport: &http.Transport{}}
	rt, _ := newTestRouter(t, replicas, func(cfg *RouterConfig) { cfg.Client = client })
	h := rt.Handler()

	// The replica that owns line 0 answers; the owner of the first line
	// that is not its own stalls: the stream's first window is answered up
	// to that line.
	owner := func(i int) string { return rt.Ring().Owner(rt.keyFor(mustIP(t, dstForIndex(i)))) }
	answered := 1
	for owner(answered) == owner(0) {
		answered++
	}
	release := make(chan struct{})
	defer close(release)
	replicaByURL(replicas, owner(answered)).stall.Store(&release)

	const n = 40
	base := runtime.NumGoroutine()
	w := newRecWriter()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/batch?window=20&deadline_ms=50", batchBody(n)))
	lines := strings.SplitAfter(w.body.String(), "\n")
	want := fmt.Sprintf(`{"src":"","dst":"","found":false,"day":0,"error":"batch aborted after %d results: context deadline exceeded"}`+"\n", answered)
	if len(lines) != answered+2 || lines[answered] != want {
		t.Fatalf("%d lines, the last %q\nwant %d answers and %q", len(lines)-1, lines[max(len(lines)-2, 0)], answered, want)
	}
	if rt.Ring().Len() != 3 {
		t.Fatalf("ring has %d nodes after an expired request, want all 3", rt.Ring().Len())
	}
	if got := routerMetric(t, rt, `inano_router_errors_total{handler="batch"}`); got != 1 {
		t.Fatalf("inano_router_errors_total{handler=\"batch\"} = %d, want 1", got)
	}
	client.CloseIdleConnections()
	waitFor(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= base })

	w = newRecWriter()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/batch?deadline_ms=0", batchBody(n)))
	if want := "{\"error\":\"bad deadline_ms \\\"0\\\"\"}\n"; w.code != http.StatusBadRequest || w.body.String() != want {
		t.Fatalf("?deadline_ms=0: %d %q, want 400 %q", w.code, w.body.String(), want)
	}
}

// TestBatchReplicaTerminalLine: with the stream's context live, a replica
// that ends its answer with a terminal line has failed, as ever: it leaves
// the ring and its lines are answered elsewhere.
func TestBatchReplicaTerminalLine(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t, 0), newFakeReplica(t, 1), newFakeReplica(t, 2)}
	rt, ts := newTestRouter(t, replicas, nil)
	msg := "batch aborted after 0 results: context deadline exceeded"
	replicas[2].abortWith.Store(&msg)
	const n = 40
	var lines []string
	for i := 0; i < n; i++ {
		lines = append(lines, batchLine(i))
	}
	answers := runBatch(t, ts.URL, lines)
	if len(answers) != n {
		t.Fatalf("got %d answers, want %d", len(answers), n)
	}
	for i, a := range answers {
		if a.Error != "" || a.Dst != dstForIndex(i) || a.Day == 2 {
			t.Fatalf("answer %d: %+v", i, a)
		}
	}
	if rt.Ring().Len() != 2 || rt.batchRetry.Value() == 0 {
		t.Fatalf("ring has %d nodes and %d lines were re-sent after a replica's terminal line, want 2 and some", rt.Ring().Len(), rt.batchRetry.Value())
	}
}

func mustIP(t *testing.T, s string) netsim.IP {
	t.Helper()
	ip, err := netsim.ParseIPv4(s)
	if err != nil {
		t.Fatal(err)
	}
	return ip
}

// panicTransport panics in the round trip of the n-th request.
type panicTransport struct {
	http.RoundTripper
	n atomic.Int64
}

func (p *panicTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if p.n.Add(-1) == 0 {
		panic("fill step")
	}
	return p.RoundTripper.RoundTrip(r)
}

// TestBatchFillPanic: a panic in the fill step, on the stage's goroutine,
// is re-raised on the goroutine that called the handler — where net/http
// recovers it — after the windows before it went out, and leaves no
// goroutine behind.
func TestBatchFillPanic(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t, 0)}
	tr := &panicTransport{RoundTripper: &http.Transport{}}
	tr.n.Store(2)
	rt, _ := newTestRouter(t, replicas, func(cfg *RouterConfig) { cfg.Client = &http.Client{Transport: tr} })
	base := runtime.NumGoroutine()
	w := newRecWriter()
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		rt.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/batch?window=4", batchBody(40)))
	}()
	if recovered != "fill step" {
		t.Fatalf("the handler's caller recovered %v, want the fill step's panic", recovered)
	}
	if got := strings.Count(w.body.String(), "\n"); got != 4 || w.writes != 1 {
		t.Fatalf("%d lines in %d writes went out before the panic, want the first window's 4 in 1", got, w.writes)
	}
	tr.RoundTripper.(*http.Transport).CloseIdleConnections()
	waitFor(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= base })
}

// batchPanicTransport panics in the round trip of every batch
// sub-request but the one that carries the window's first line — the one
// the router asks on its own goroutine — and lets health checks through.
type batchPanicTransport struct{ http.RoundTripper }

func (p batchPanicTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/v1/batch" {
		body, _ := io.ReadAll(r.Body)
		if !bytes.Contains(body, []byte(batchLine(0))) {
			panic("sub-request")
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	return p.RoundTripper.RoundTrip(r)
}

// TestBatchSubRequestPanic: a window over three replicas asks two of them
// on goroutines of their own. A panic there does not take the process
// down: it is raised on the goroutine that called the handler, like the
// fill step's own, once the sub-request the router asked itself is done,
// no sub-request goroutine is left behind, and the request counts as
// failed.
func TestBatchSubRequestPanic(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t, 0), newFakeReplica(t, 1), newFakeReplica(t, 2)}
	tr := batchPanicTransport{&http.Transport{}}
	rt, _ := newTestRouter(t, replicas, func(cfg *RouterConfig) { cfg.Client = &http.Client{Transport: tr} })
	base := runtime.NumGoroutine()
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		rt.Handler().ServeHTTP(newRecWriter(), httptest.NewRequest(http.MethodPost, "/v1/batch?window=40", batchBody(40)))
	}()
	if recovered != "sub-request" {
		t.Fatalf("the handler's caller recovered %v, want the sub-request's panic", recovered)
	}
	if got := routerMetric(t, rt, `inano_router_errors_total{handler="batch"}`); got != 1 {
		t.Fatalf("inano_router_errors_total{handler=\"batch\"} = %d after a panic, want 1", got)
	}
	tr.RoundTripper.(*http.Transport).CloseIdleConnections()
	waitFor(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= base })
}

// smallBufListener shrinks the send buffer of every connection it accepts.
type smallBufListener struct{ net.Listener }

func (l smallBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		err = c.(*net.TCPConn).SetWriteBuffer(4 << 10)
	}
	return c, err
}

// TestBatchClientGone: a client posts a hundred windows, reads one answer
// and closes the connection. The router must find out from its writes — the
// stage stops at the one that fails and the handler returns it — stop
// asking the replicas about windows nobody will read, and leave no
// goroutine and no sub-request behind. Both ends' socket buffers are kept
// small so that the response backs up against the unread connection after a
// few windows, well before the last.
func TestBatchClientGone(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t, 0), newFakeReplica(t, 1), newFakeReplica(t, 2)}
	logged := make(chan string, 16)
	backend := &http.Client{Transport: &http.Transport{}}
	rt, err := NewRouter(RouterConfig{
		Nodes: []string{replicas[0].ts.URL, replicas[1].ts.URL, replicas[2].ts.URL}, ClusterOf: clusterOfPrefix,
		Client: backend,
		Logf:   func(format string, args ...any) { logged <- fmt.Sprintf(format, args...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(rt.Handler())
	ts.Listener = smallBufListener{ts.Listener}
	ts.Start()
	defer ts.Close()
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if err == nil {
			err = c.(*net.TCPConn).SetReadBuffer(4 << 10)
		}
		return c, err
	}}
	base := runtime.NumGoroutine()

	const window, windows = 64, 100
	resp, err := (&http.Client{Transport: tr}).Post(ts.URL+fmt.Sprintf("/v1/batch?window=%d", window), "application/x-ndjson", batchBody(window*windows))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	// The router runs ahead until the unread response blocks it: wait for
	// the replicas' line count to stand still.
	answered := func() (n int64) {
		for _, f := range replicas {
			n += f.batchLines.Load()
		}
		return n
	}
	before := answered()
	for still := 0; still < 10; {
		time.Sleep(10 * time.Millisecond)
		if now := answered(); now != before {
			before, still = now, 0
		} else {
			still++
		}
	}
	if before >= window*windows {
		t.Fatalf("the router ran all %d windows against an unread connection; the test's socket buffers are too large to hold it back", windows)
	}
	resp.Body.Close() // not read to its end: the transport closes the connection

	select {
	case msg := <-logged:
		if !strings.Contains(msg, "writing batch response") {
			t.Fatalf("the handler did not return a write error; it logged %q", msg)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the handler did not return after its client went away")
	}
	if got := routerMetric(t, rt, `inano_router_errors_total{handler="batch"}`); got != 1 {
		t.Fatalf("inano_router_errors_total{handler=\"batch\"} = %d, want 1", got)
	}
	if further := (answered() - before) / window; further >= 3 {
		t.Fatalf("%d more windows were asked of the replicas after the client went away, want fewer than 3", further)
	}
	if rt.Ring().Len() != 3 {
		t.Fatalf("ring has %d nodes after a client went away, want all 3", rt.Ring().Len())
	}
	tr.CloseIdleConnections()
	backend.CloseIdleConnections()
	waitFor(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= base })
}

// TestBatchAbortReachesOpenStream: a window that cannot be answered ends the
// stream at once, though the client — waiting to hear of that window before
// it sends more — holds its request body open and the handler is reading it.
func TestBatchAbortReachesOpenStream(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t, 0)}
	release := make(chan struct{})
	defer close(release)
	replicas[0].stall.Store(&release)
	_, ts := newTestRouter(t, replicas, nil)

	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch?window=2&deadline_ms=50", pr)
	if err != nil {
		t.Fatal(err)
	}
	go io.WriteString(pw, batchLine(0)+"\n"+batchLine(1)+"\n")
	lineCh := make(chan string, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			lineCh <- err.Error()
			return
		}
		defer resp.Body.Close()
		line, _ := bufio.NewReader(resp.Body).ReadString('\n')
		lineCh <- line
	}()
	select {
	case line := <-lineCh:
		if want := `{"src":"","dst":"","found":false,"day":0,"error":"batch aborted after 0 results: context deadline exceeded"}` + "\n"; line != want {
			t.Fatalf("got %q, want %q", line, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no terminal line while the request stream is open")
	}
}
