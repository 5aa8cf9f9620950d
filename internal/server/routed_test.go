package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	inano "inano"
	"inano/internal/api"
	"inano/internal/atlas"
	"inano/internal/cluster"
	"inano/internal/feedback"
)

// metricOf reads one series, its labels in braces when it has any, off
// the /metrics a daemon's handler h serves.
func metricOf(t *testing.T, h http.Handler, series string) (v uint64) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if _, err := fmt.Sscanf(line, series+" %d", &v); err == nil {
			return v
		}
	}
	t.Fatalf("no %s in the metrics", series)
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
	if got := metricOf(t, rt.Handler(), "inano_router_batch_lines_total"); got != sent || streamed() != sent {
		t.Fatalf("inano_router_batch_lines_total = %d and the replicas streamed %d pairs, want the %d lines sent", got, streamed(), sent)
	}
	if got := metricOf(t, rt.Handler(), "inano_router_batch_retried_total"); got != 0 {
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
	retried := metricOf(t, rt.Handler(), "inano_router_batch_retried_total")
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
	if got := metricOf(t, rt.Handler(), "inano_router_batch_lines_total"); got != sent+retried {
		t.Fatalf("inano_router_batch_lines_total = %d, want %d lines sent + %d re-sent", got, sent, retried)
	}
}

// TestRoutedRefusals: both daemons read every /v1 request through one
// reader (internal/api), so a malformed request gets the same status and
// body from a router as from a replica, and the router refuses it itself:
// none of the table's requests reaches the replica. A well-formed request
// does, and its answer comes back through the router as it is.
func TestRoutedRefusals(t *testing.T) {
	f := buildFixture(t, 219)
	s, _ := start(t, f, nil)
	node := s.Handler()
	var reached atomic.Int64
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") {
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
	type request struct{ method, target, body string }
	ask := func(h http.Handler, req request) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(req.method, req.target, strings.NewReader(req.body)))
		return rec
	}
	src, dst, cand := ipStr(f.vps[1]), ipStr(f.targets[2]), ipStr(f.targets[3])
	pair := fmt.Sprintf(`{"src":%q,"dst":%q}`, src, dst)
	rank := fmt.Sprintf(`{"src":%q,"candidates":[%q,%q]}`, src, dst, cand)
	rankOf := func(s, cands string) string { return fmt.Sprintf(`{"src":%q,"candidates":[%s]}`, s, cands) }
	query := "/v1/query?src=" + src + "&dst=" + dst
	relay := "/v1/relay?src=" + src + "&dst=" + dst + "&relays=" + cand + "," + dst
	for _, req := range []request{
		// /v1/query, GET
		{"GET", "/v1/query?src=%2B1.2.3.4&dst=1.2.3", ""},
		{"GET", "/v1/query?src=" + src + "&dst=01.2.3.4", ""},
		{"GET", "/v1/query?src=bad&dst=bad", ""},
		{"GET", "/v1/query?dst=" + dst, ""},
		{"GET", query + "&deadline_ms=-1", ""},
		{"GET", query + "&deadline_ms=0", ""},
		{"GET", query + "&deadline_ms=soon", ""},
		{"PUT", "/v1/query", pair},
		// /v1/query, POST
		{"POST", "/v1/query", fmt.Sprintf(`{"src":"+1.2.3.4","dst":%q}`, dst)},
		{"POST", "/v1/query", fmt.Sprintf(`{"src":%q,"dst":"1.2.3"}`, src)},
		{"POST", "/v1/query", `{"src":"bad","dst":"bad"}`},
		{"POST", "/v1/query", fmt.Sprintf(`{"src":%q,"dst":%q,"deadline_ms":-1}`, src, dst)},
		{"POST", "/v1/query", pair[:len(pair)-1]},
		{"POST", "/v1/query", ""},
		{"POST", "/v1/query", pair + " trailing"},
		{"POST", "/v1/query", paddedBody(api.MaxLineBytes+1, pair[1:len(pair)-1])},
		{"POST", "/v1/query?deadline_ms=-1", pair},
		// /v1/rank
		{"GET", "/v1/rank", ""},
		{"POST", "/v1/rank", `{"src":"bad","candidates":["bad"]}`},
		{"POST", "/v1/rank", rankOf("bad", strconv.Quote(dst))},
		{"POST", "/v1/rank", rankOf(src, "")},
		{"POST", "/v1/rank", fmt.Sprintf(`{"src":%q}`, src)},
		{"POST", "/v1/rank", rankOf(src, strconv.Quote(dst)+`,"1.2.3"`)},
		{"POST", "/v1/rank", rankOf(src, `"01.2.3.4"`)},
		{"POST", "/v1/rank", fmt.Sprintf(`{"src":%q,"candidates":[%q],"size_bytes":"big"}`, src, dst)},
		{"POST", "/v1/rank", rank + " trailing"},
		{"POST", "/v1/rank", rank[:len(rank)-1]},
		{"POST", "/v1/rank", ""},
		{"POST", "/v1/rank", paddedBody(api.MaxRankBytes+1, rank[1:len(rank)-1])},
		{"POST", "/v1/rank?deadline_ms=-1", rank},
		// /v1/relay
		{"POST", relay, ""},
		{"GET", "/v1/relay?src=bad&dst=bad&relays=" + cand, ""},
		{"GET", "/v1/relay?src=" + src + "&dst=bad&relays=" + cand, ""},
		{"GET", "/v1/relay?src=" + src + "&dst=" + dst + "&relays=" + cand + ",1.2.3", ""},
		{"GET", "/v1/relay?src=" + src + "&dst=" + dst + "&relays=,%20,", ""},
		{"GET", "/v1/relay?src=" + src + "&dst=" + dst, ""},
		{"GET", relay + "&k=0", ""},
		{"GET", relay + "&k=x", ""},
		{"GET", relay + "&deadline_ms=-1", ""},
		// /v1/batch: what is refused before the stream starts
		{"GET", "/v1/batch", ""},
		{"POST", "/v1/batch?window=0", pair},
		{"POST", "/v1/batch?window=x", pair},
		{"POST", "/v1/batch?deadline_ms=-1", pair},
		{"POST", "/v1/batch?window=x&deadline_ms=0", pair},
	} {
		want, got := ask(node, req), ask(routed, req)
		if got.Code != want.Code || got.Body.String() != want.Body.String() || got.Code/100 != 4 {
			t.Errorf("%s %.80s %.80q: router %d %q, replica %d %q", req.method, req.target, req.body, got.Code, got.Body, want.Code, want.Body)
		}
	}
	if n := reached.Load(); n != 0 {
		t.Fatalf("%d malformed requests reached the replica", n)
	}
	for i, req := range []request{
		{"POST", "/v1/query", fmt.Sprintf(`{"src":%q,"dst":%q,"deadline_ms":60000}`, src, dst)},
		{"GET", query + "&deadline_ms=60000", ""},
		{"POST", "/v1/rank?deadline_ms=60000", rank},
		{"GET", relay + "&k=1", ""},
	} {
		want, got := ask(node, req), ask(routed, req)
		if got.Code != http.StatusOK || got.Body.String() != want.Body.String() || reached.Load() != int64(i+1) {
			t.Fatalf("%s %s: router %d %q, replica %d %q, %d requests reached the replica", req.method, req.target, got.Code, got.Body, want.Code, want.Body, reached.Load())
		}
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestReportHeads: the two report endpoints read their heads through one
// reader (api.ReadReport) and refuse in its order — the method, a disabled
// endpoint, ?deadline_ms= before any of the body is read, the body's cap,
// then a body of which no line parses. A router serves neither (404).
func TestReportHeads(t *testing.T) {
	f := buildFixture(t, 220)
	plain, _ := start(t, f, nil)
	agg, _ := start(t, f, func(c *Config) { c.Aggregator = feedback.NewAggregator() })
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Nodes: []string{"http://127.0.0.1:1"}, ClusterOf: atlas.Compile(f.day0).ClusterOf, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	// overCap is a body of blank lines that runs past limit; the reader
	// stops at limit, inside line lines+1, and names the one after it.
	blank := []byte(strings.Repeat(" ", 4000) + "\n")
	overCap := func(limit int64) (func() io.Reader, string) {
		lines := (limit + int64(len(blank)) - 1) / int64(len(blank))
		return func() io.Reader { return io.LimitReader(&loopReader{body: blank}, limit+int64(len(blank))) },
			fmt.Sprintf(`{"error":"line %d: http: request body too large"}`+"\n", lines+1)
	}
	text := func(s string) func() io.Reader { return func() io.Reader { return strings.NewReader(s) } }
	fbCap, fbCapErr := overCap(maxFeedbackBody)
	obsCap, obsCapErr := overCap(maxObservationBody)
	for _, row := range []struct {
		name         string
		h            http.Handler
		method, path string
		body         func() io.Reader
		code         int
		answer       string
		unread       bool // refused before any of the body is read
	}{
		{"feedback GET", plain.Handler(), "GET", "/v1/feedback", text(""), 405, `{"error":"use POST"}` + "\n", true},
		{"observations GET", plain.Handler(), "GET", "/v1/observations", text(""), 405, `{"error":"use POST"}` + "\n", true},
		{"observations disabled", plain.Handler(), "POST", "/v1/observations?deadline_ms=x", text("not json\n"), 501,
			`{"error":"observation ingest not enabled on this daemon"}` + "\n", true},
		{"feedback deadline first", plain.Handler(), "POST", "/v1/feedback?deadline_ms=x", text("not json\n"), 400,
			`{"error":"bad deadline_ms \"x\""}` + "\n", true},
		{"observations deadline first", agg.Handler(), "POST", "/v1/observations?deadline_ms=0", text("not json\n"), 400,
			`{"error":"bad deadline_ms \"0\""}` + "\n", true},
		{"feedback over cap", plain.Handler(), "POST", "/v1/feedback", fbCap, 400, fbCapErr, false},
		{"observations over cap", agg.Handler(), "POST", "/v1/observations", obsCap, 400, obsCapErr, false},
		{"feedback no line parses", plain.Handler(), "POST", "/v1/feedback", text("not json\n"), 400,
			`{"error":"line 1: bad observation: invalid character 'o' in literal null (expecting 'u')"}` + "\n", false},
		{"router feedback", rt.Handler(), "POST", "/v1/feedback", text("not json\n"), 404, "404 page not found\n", false},
		{"router observations", rt.Handler(), "POST", "/v1/observations", text("not json\n"), 404, "404 page not found\n", false},
	} {
		body := &countingReader{r: row.body()}
		rec := httptest.NewRecorder()
		row.h.ServeHTTP(rec, httptest.NewRequest(row.method, row.path, body))
		if rec.Code != row.code || rec.Body.String() != row.answer {
			t.Errorf("%s: %d %q, want %d %q", row.name, rec.Code, rec.Body, row.code, row.answer)
		}
		if row.unread && body.n != 0 {
			t.Errorf("%s: %d bytes of the body were read before the refusal", row.name, body.n)
		}
	}
}
