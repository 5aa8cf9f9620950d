package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	inano "inano"
	"inano/internal/atlas"
	"inano/internal/cluster"
)

// routerMetric reads one unlabelled counter off the router's /metrics.
func routerMetric(t *testing.T, rt *cluster.Router, name string) (v uint64) {
	t.Helper()
	var buf bytes.Buffer
	if err := rt.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if _, err := fmt.Sscanf(line, name+" %d", &v); err == nil {
			return v
		}
	}
	t.Fatalf("no %s in the router's metrics", name)
	return 0
}

// TestRoutedBatchBytes holds the routed stream to the single node's, byte
// for byte: a cluster.Router over three real replicas must answer streams
// of every length around a window's edge, at three window sizes, mixing the
// line kinds of TestBatchPipelineBytes, exactly as one node answers them —
// whichever replica computed a line, whatever order the sub-requests came
// back in — in one Write and one Flush a window, sending each line to a
// replica once. Then the same with a replica gone mid-stream: the same
// bytes, every line answered once, only the dead replica's lines re-sent.
func TestRoutedBatchBytes(t *testing.T) {
	f := buildFixture(t, 218)
	node, _ := start(t, f, nil)
	var replicas []*Server
	var servers []*httptest.Server
	var urls []string
	for i := 0; i < 3; i++ {
		s, ts := start(t, f, func(c *Config) { c.PeerID = fmt.Sprintf("r%d", i) })
		replicas, servers, urls = append(replicas, s), append(servers, ts), append(urls, ts.URL)
	}
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Nodes: urls, ClusterOf: atlas.Compile(f.day0).ClusterOf,
		Client: &http.Client{Transport: tr}, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	routed := rt.Handler()
	streamed := func() (n uint64) {
		for _, s := range replicas {
			n += s.pairsTotal.Value()
		}
		return n
	}

	// lines builds request lines from to to of a stream, six kinds in turn.
	// held, when set, gives line 0 a deadline that the stall after it
	// outlasts: time a client spends filling the router's window, which a
	// replica never sees.
	lines := func(from, to int, held bool) (body []byte) {
		for i := from; i < to; i++ {
			src, dst := f.vps[i%len(f.vps)].HostIP().String(), f.targets[(i*7)%len(f.targets)].HostIP()
			switch {
			case held && i == 0:
				body = fmt.Appendf(body, "{\"src\":%q,\"dst\":%q,\"deadline_ms\":100}\n", src, dst)
			case i%6 == 0:
				body = fmt.Appendf(body, "{\"src\":%q,\"dst\":%q}\n", src, dst)
			case i%6 == 1:
				body = fmt.Appendf(body, "{\"dst\": %q, \"src\": %q}\n", dst, src)
			case i%6 == 2:
				body = fmt.Appendf(body, "{\"src\":%q,\"dst\":%q,\"deadline_ms\":60000}\n", src, dst)
			case i%6 == 3: // no such prefix: found=false, and no cluster to route by
				body = fmt.Appendf(body, "{\"src\":%q,\"dst\":%q}\n", src, inano.IP(0xfffffffe))
			case i%6 == 4: // escaped address: decodes to the same address
				body = fmt.Appendf(body, "\n  \n{\"src\":\"%s\",\"dst\":%q}\n", strings.Replace(src, ".", `\u002e`, 1), dst)
			case i%6 == 5:
				body = fmt.Appendf(body, " {\"deadline_ms\": 60000, \"src\":%q , \"dst\":%q}\n", src, dst)
			}
		}
		return body
	}
	serve := func(h http.Handler, url string, body *pausedBody) *duplexWriter {
		w := newDuplexWriter()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, url, body))
		return w
	}

	const defaultWindow = 1024 // RouterConfig.Window's, and core.DefaultStreamWindow
	sent := uint64(0)
	for _, window := range []int{1, 7, defaultWindow} {
		url := fmt.Sprintf("/v1/batch?window=%d", window)
		if window == defaultWindow {
			url = "/v1/batch"
		}
		for _, n := range []int{0, 1, window - 1, window, window + 1, 10*window + 3} {
			body := lines(0, n, false)
			want := serve(node.Handler(), url, &pausedBody{segs: [][]byte{body}})
			got := serve(routed, url, &pausedBody{segs: [][]byte{body}})
			if !bytes.Equal(got.body.Bytes(), want.body.Bytes()) {
				t.Fatalf("window %d, %d lines: the routed body differs from the node's\ngot  %d bytes: %.300q\nwant %d bytes: %.300q",
					window, n, got.body.Len(), got.body.Bytes(), want.body.Len(), want.body.Bytes())
			}
			if strings.Count(got.body.String(), "\n") != n {
				t.Fatalf("window %d: %d answers to %d lines", window, strings.Count(got.body.String(), "\n"), n)
			}
			if windows := (n + window - 1) / window; got.writes != windows || got.flushes != windows {
				t.Fatalf("window %d, %d lines: %d writes and %d flushes, want %d of each", window, n, got.writes, got.flushes, windows)
			}
			sent += uint64(n)
		}
	}
	if got := routerMetric(t, rt, "inano_router_batch_lines_total"); got != sent || streamed() != sent {
		t.Fatalf("inano_router_batch_lines_total = %d and the replicas streamed %d pairs, want the %d lines sent", got, streamed(), sent)
	}
	if got := routerMetric(t, rt, "inano_router_batch_retried_total"); got != 0 {
		t.Fatalf("inano_router_batch_retried_total = %d with every replica up", got)
	}

	// The one behaviour the router moves: a pair's own deadline_ms runs from
	// the replica's receipt of the line. Held back 250 ms in an open window,
	// a 100 ms pair expires at a node and is answered through the router.
	const window = 7
	url := fmt.Sprintf("/v1/batch?window=%d", window)
	const n = 10*window + 3
	heldBack := func() *pausedBody {
		return &pausedBody{segs: [][]byte{lines(0, 1, true), lines(1, n, true)}, pause: 250 * time.Millisecond}
	}
	want := serve(node.Handler(), url, &pausedBody{segs: [][]byte{lines(0, n, true)}})
	if got := serve(node.Handler(), url, heldBack()); !strings.Contains(got.body.String()[:strings.Index(got.body.String(), "\n")], "deadline_ms exceeded") {
		t.Fatalf("a node answered a 100 ms pair it held for 250: %.200q", got.body.Bytes())
	}
	if got := serve(routed, url, heldBack()); !bytes.Equal(got.body.Bytes(), want.body.Bytes()) {
		t.Fatalf("held back in the router's window, the stream differs from the node's unheld one\ngot  %.300q\nwant %.300q", got.body.Bytes(), want.body.Bytes())
	}

	// A replica gone mid-stream. The body stalls after four and a half
	// windows; once the fourth is answered — its Write under way, so no
	// sub-request is in flight — r1's listener and connections close.
	before := streamed()
	var fourth atomic.Bool
	w := newDuplexWriter()
	w.beforeWrite = func(k int) error {
		if k == 4 {
			fourth.Store(true)
		}
		return nil
	}
	routed.ServeHTTP(w, httptest.NewRequest(http.MethodPost, url, &pausedBody{
		segs: [][]byte{lines(0, 4*window+3, true), lines(4*window+3, n, true)},
		between: func() {
			for !fourth.Load() {
				time.Sleep(time.Millisecond)
			}
			servers[1].CloseClientConnections()
			servers[1].Listener.Close()
		},
	}))
	if !bytes.Equal(w.body.Bytes(), want.body.Bytes()) {
		t.Fatalf("with a replica gone mid-stream the routed body differs from the node's\ngot  %d bytes: %.300q\nwant %d bytes: %.300q",
			w.body.Len(), w.body.Bytes(), want.body.Len(), want.body.Bytes())
	}
	retried := routerMetric(t, rt, "inano_router_batch_retried_total")
	if retried == 0 || rt.Ring().Len() != 2 {
		t.Fatalf("%d lines re-sent and %d replicas in the ring after one went away, want some and 2", retried, rt.Ring().Len())
	}
	// Delivered exactly once: the replicas streamed one answer a line (one
	// whose answer fully arrived is never asked again), and the router sent
	// only the dead replica's lines twice.
	if got := streamed() - before; got != n {
		t.Fatalf("the replicas streamed %d answers to a stream of %d lines", got, n)
	}
	sent += 2 * n // the held stream and this one
	if got := routerMetric(t, rt, "inano_router_batch_lines_total"); got != sent+retried {
		t.Fatalf("inano_router_batch_lines_total = %d, want %d lines sent + %d re-sent", got, sent, retried)
	}
}

// TestRoutedQueryRefusals: the router parses a /v1/query, its POST body or
// its parameters, as its replicas do, so a malformed one gets the replica's
// status and error text from the router itself, and only a well-formed one
// reaches a replica — whose answer the router forwards as it is.
func TestRoutedQueryRefusals(t *testing.T) {
	f := buildFixture(t, 219)
	s, _ := start(t, f, nil)
	node := s.Handler()
	var reached atomic.Int64
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/query" {
			reached.Add(1)
		}
		node.ServeHTTP(w, r)
	}))
	defer replica.Close()
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Nodes: []string{replica.URL}, ClusterOf: atlas.Compile(f.day0).ClusterOf, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	routed := rt.Handler()
	// ask POSTs body to /v1/query, or GETs /v1/query?<body> when it is a
	// query string.
	ask := func(h http.Handler, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body))
		if strings.HasPrefix(body, "src=") {
			req = httptest.NewRequest(http.MethodGet, "/v1/query?"+body, nil)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	src, dst := ipStr(f.vps[1]), ipStr(f.targets[2])
	for _, body := range []string{
		fmt.Sprintf(`{"src":"+1.2.3.4","dst":%q}`, dst),
		fmt.Sprintf(`{"src":%q,"dst":"1.2.3"}`, src),
		fmt.Sprintf(`{"src":%q,"dst":%q,"deadline_ms":-1}`, src, dst),
		fmt.Sprintf(`{"src":%q,"dst":%q`, src, dst),
		``,
		"src=%2B1.2.3.4&dst=1.2.3",
		"src=" + src + "&dst=01.2.3.4",
	} {
		want, got := ask(node, body), ask(routed, body)
		if got.Code != http.StatusBadRequest || got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Errorf("query %q: router %d %q, replica %d %q", body, got.Code, got.Body, want.Code, want.Body)
		}
	}
	if n := reached.Load(); n != 0 {
		t.Fatalf("%d malformed queries reached the replica", n)
	}
	body := fmt.Sprintf(`{"src":%q,"dst":%q,"deadline_ms":60000}`, src, dst)
	want, got := ask(node, body), ask(routed, body)
	if got.Code != http.StatusOK || got.Body.String() != want.Body.String() || reached.Load() != 1 {
		t.Fatalf("router %d %q, replica %d %q, %d requests reached the replica", got.Code, got.Body, want.Code, want.Body, reached.Load())
	}
}
