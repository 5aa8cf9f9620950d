package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	inano "inano"
	"inano/internal/api"
	"inano/internal/core"
	"inano/internal/netsim"
)

// duplexWriter is a hand-made ResponseWriter that drives handleBatch
// without a network. It has what the handler asks of a ResponseController
// (full duplex, a flush that can fail) and keeps count of the Writes and
// Flushes it is given. beforeWrite, when set, runs first in the n-th Write
// (1-based): it may fail the Write or panic.
type duplexWriter struct {
	header          http.Header
	body            bytes.Buffer
	writes, flushes int
	beforeWrite     func(n int) error
}

func newDuplexWriter() *duplexWriter { return &duplexWriter{header: make(http.Header)} }

func (w *duplexWriter) Header() http.Header     { return w.header }
func (w *duplexWriter) WriteHeader(int)         {}
func (w *duplexWriter) EnableFullDuplex() error { return nil }
func (w *duplexWriter) FlushError() error       { w.flushes++; return nil }
func (w *duplexWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.beforeWrite != nil {
		if err := w.beforeWrite(w.writes); err != nil {
			return 0, err
		}
	}
	return w.body.Write(p)
}

// pausedBody is a request body in segments: Read never crosses a segment's
// end, and sleeps (and calls between, when set) before it goes on to the
// next one (or reports EOF) — a producer that stalls at known places.
type pausedBody struct {
	segs    [][]byte
	pause   time.Duration
	between func()
}

func (b *pausedBody) Read(p []byte) (int, error) {
	for len(b.segs) > 0 && len(b.segs[0]) == 0 {
		b.segs = b.segs[1:]
		time.Sleep(b.pause)
		if b.between != nil {
			b.between()
		}
	}
	if len(b.segs) == 0 {
		return 0, io.EOF
	}
	n := copy(p, b.segs[0])
	b.segs[0] = b.segs[0][n:]
	return n, nil
}

// waitGoroutines waits for the goroutine count to come back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want the baseline %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBatchPipelineBytes holds the two-stage stream to the wire format line
// by line: streams of every length around a window's edge, at three window
// sizes, mixing canonical, field-swapped, deadline-carrying (met and
// expired), unknown-prefix, quirk-address and blank lines, must come out
// byte for byte as a per-line json.Encoder over Snapshot.Query would write
// them, in one Write and one Flush per window.
func TestBatchPipelineBytes(t *testing.T) {
	f := buildFixture(t, 213)
	s, _ := start(t, f, nil)
	h := s.Handler()
	snap := f.client.Snapshot()

	for _, window := range []int{1, 7, core.DefaultStreamWindow} {
		url := fmt.Sprintf("/v1/batch?window=%d", window)
		if window == core.DefaultStreamWindow {
			url = "/v1/batch"
		}
		for _, n := range []int{0, 1, window - 1, window, window + 1, 10*window + 3} {
			var want bytes.Buffer
			body := &pausedBody{segs: [][]byte{nil}, pause: 25 * time.Millisecond}
			add := func(format string, args ...any) {
				last := len(body.segs) - 1
				body.segs[last] = fmt.Appendf(body.segs[last], format, args...)
			}
			for i := 0; i < n; i++ {
				src, dst := f.vps[i%len(f.vps)].HostIP(), f.targets[(i*7)%len(f.targets)].HostIP()
				srcStr, errMsg := src.String(), ""
				switch {
				case window > 1 && i%window == 0 && i/window < 3:
					// A deadline that has passed when the window runs: this
					// line opens its window, and the body stalls right after
					// it. (In a window of one a line is answered the moment
					// it is read, so no deadline is "already expired".)
					add("{\"src\":%q,\"dst\":%q,\"deadline_ms\":5}\n", srcStr, dst)
					body.segs = append(body.segs, nil)
					errMsg = "deadline_ms exceeded"
				case i%6 == 0:
					add("{\"src\":%q,\"dst\":%q}\n", srcStr, dst)
				case i%6 == 1:
					add("{\"dst\": %q, \"src\": %q}\n", dst, srcStr)
				case i%6 == 2:
					add("{\"src\":%q,\"dst\":%q,\"deadline_ms\":60000}\n", srcStr, dst)
				case i%6 == 3:
					dst = inano.IP(0xfffffffe) // no such prefix: found=false
					add("{\"src\":%q,\"dst\":%q}\n", srcStr, dst)
				case i%6 == 4: // escaped address: decodes to the same address
					add("\n  \n{\"src\":\"%s\",\"dst\":%q}\n", strings.Replace(srcStr, ".", `\u002e`, 1), dst)
				case i%6 == 5:
					add(" {\"deadline_ms\": 60000, \"src\":%q , \"dst\":%q}\n", srcStr, dst)
				}
				res := resultFor(srcStr, dst.String(), snap.Day(), queryPair(snap, netsim.PrefixOf(src), netsim.PrefixOf(dst)), false)
				if errMsg != "" {
					res = queryResult{Src: srcStr, Dst: dst.String(), Day: snap.Day(), Error: errMsg}
				}
				want.Write(encoderLine(t, res))
			}

			w := newDuplexWriter()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, url, body))
			if !bytes.Equal(w.body.Bytes(), want.Bytes()) {
				t.Fatalf("window %d, %d lines: body differs from the per-line reference\ngot  %d bytes: %.300q\nwant %d bytes: %.300q",
					window, n, w.body.Len(), w.body.Bytes(), want.Len(), want.Bytes())
			}
			if windows := (n + window - 1) / window; w.writes != windows || w.flushes != windows {
				t.Fatalf("window %d, %d lines: %d writes and %d flushes, want %d of each", window, n, w.writes, w.flushes, windows)
			}
		}
	}
	if got := metricOf(t, s.Handler(), `inanod_http_errors_total{handler="batch"}`); got != 0 {
		t.Fatalf("%d batch requests counted as errors", got)
	}
}

// TestBatchClientGone: a client posts a hundred windows, reads one answer
// and closes the connection. The server must find out from its writes —
// the handler returns a write error — stop answering windows nobody will
// read, and leave no goroutine behind. Both ends' socket buffers are kept
// small so that the response backs up against the unread connection after a
// few windows, well before the last.
func TestBatchClientGone(t *testing.T) {
	f := buildFixture(t, 214)
	var logs bytes.Buffer
	logged := make(chan struct{}, 16)
	s := New(Config{Client: f.client, Logf: func(format string, args ...any) {
		fmt.Fprintf(&logs, format+"\n", args...) // one request, one logging goroutine at a time
		logged <- struct{}{}
	}})
	ts := httptest.NewUnstartedServer(s.Handler())
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
	hc := &http.Client{Transport: tr}

	const window, windows = 64, 100
	var one bytes.Buffer
	for i := 0; i < window; i++ {
		one.WriteString(batchLine(f.vps[i%len(f.vps)], f.targets[(i*7)%len(f.targets)]))
	}
	post := func(body []byte) *http.Response {
		resp, err := hc.Post(ts.URL+fmt.Sprintf("/v1/batch?window=%d", window), "application/x-ndjson", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// One window alone: warms the trees, and its tree-cache hits are what
	// one window run costs.
	resp := post(one.Bytes())
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	warm := f.client.CacheStats().Hits
	resp = post(one.Bytes())
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	start := f.client.CacheStats().Hits
	perWindow := start - warm
	if perWindow == 0 {
		t.Fatal("a warm window run left no trace in the tree cache's hit counter")
	}
	tr.CloseIdleConnections()
	time.Sleep(20 * time.Millisecond)
	base := runtime.NumGoroutine()

	resp = post(bytes.Repeat(one.Bytes(), windows))
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	// The server runs ahead until the unread response blocks it: wait for
	// its window count to stand still.
	before := f.client.CacheStats().Hits
	for still := 0; still < 10; {
		time.Sleep(10 * time.Millisecond)
		if now := f.client.CacheStats().Hits; now != before {
			before, still = now, 0
		} else {
			still++
		}
	}
	if ran := (before - start) / perWindow; ran >= windows {
		t.Fatalf("the server ran all %d windows against an unread connection; the test's socket buffers are too large to hold it back", ran)
	}
	resp.Body.Close() // not read to its end: the transport closes the connection

	select {
	case <-logged:
	case <-time.After(10 * time.Second):
		t.Fatal("the handler did not return after its client went away")
	}
	if !strings.Contains(logs.String(), "writing batch response") {
		t.Fatalf("the handler did not return a write error; it logged:\n%s", logs.String())
	}
	if got := metricOf(t, s.Handler(), `inanod_http_errors_total{handler="batch"}`); got != 1 {
		t.Fatalf("inanod_http_errors_total{handler=\"batch\"} = %d, want 1", got)
	}
	if further := (f.client.CacheStats().Hits - before) / perWindow; further >= 3 {
		t.Fatalf("%d more windows were run after the client went away, want fewer than 3", further)
	}
	tr.CloseIdleConnections()
	waitGoroutines(t, base)
	if got := s.InFlight(); got != 0 {
		t.Fatalf("in flight = %d after the stream ended", got)
	}
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

// TestBatchStagePanic: a panic under the stage goroutine's Write must reach
// the goroutine that called the handler — where instrument counts it and
// net/http recovers it — and not take the process down from a goroutine
// nobody recovers; and the stage must be gone by then.
func TestBatchStagePanic(t *testing.T) {
	f := buildFixture(t, 215)
	s, _ := start(t, f, nil)
	h := s.Handler()
	var body strings.Builder
	for i := 0; i < 40; i++ {
		body.WriteString(batchLine(f.vps[i%len(f.vps)], f.targets[i%len(f.targets)]))
	}
	base := runtime.NumGoroutine()

	w := newDuplexWriter()
	w.beforeWrite = func(n int) error {
		if n == 2 {
			panic("second write")
		}
		return nil
	}
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/batch?window=4", strings.NewReader(body.String())))
	}()
	if recovered != "second write" {
		t.Fatalf("ServeHTTP's caller recovered %v, want the stage's panic", recovered)
	}
	if got := metricOf(t, s.Handler(), `inanod_http_errors_total{handler="batch"}`); got != 1 {
		t.Fatalf("inanod_http_errors_total{handler=\"batch\"} = %d, want 1", got)
	}
	if got := s.InFlight(); got != 0 {
		t.Fatalf("in flight = %d after the panic", got)
	}
	if got := s.pairsTotal.Value(); got != 4 {
		t.Fatalf("pairs streamed = %d, want the first window's 4", got)
	}
	waitGoroutines(t, base)
}

// TestBatchWriteFails: a Write that fails ends the stream with the write
// error, counts only the lines that went out, and writes nothing more —
// not even a terminal error line.
func TestBatchWriteFails(t *testing.T) {
	f := buildFixture(t, 216)
	s, _ := start(t, f, nil)
	var body strings.Builder
	for i := 0; i < 40; i++ {
		body.WriteString(batchLine(f.vps[i%len(f.vps)], f.targets[i%len(f.targets)]))
	}
	body.WriteString("not json\n")
	w := newDuplexWriter()
	w.beforeWrite = func(n int) error {
		if n >= 3 {
			return io.ErrClosedPipe
		}
		return nil
	}
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/batch?window=4", strings.NewReader(body.String())))
	if w.writes != 3 || strings.Count(w.body.String(), "\n") != 8 {
		t.Fatalf("%d writes, %d lines out; want 3 writes (the third failing) and 8 lines", w.writes, strings.Count(w.body.String(), "\n"))
	}
	if got := s.pairsTotal.Value(); got != 8 {
		t.Fatalf("pairs streamed = %d, want 8", got)
	}
	if got := metricOf(t, s.Handler(), `inanod_http_errors_total{handler="batch"}`); got != 1 {
		t.Fatalf("inanod_http_errors_total{handler=\"batch\"} = %d, want 1", got)
	}
}

// TestBatchTerminalLineLast: the terminal error line is written only when
// the stage has put out every answered window, however slowly, and the
// count in it is the count of lines written — for a malformed line and for
// a request deadline that expires between two windows.
func TestBatchTerminalLineLast(t *testing.T) {
	f := buildFixture(t, 217)
	s, _ := start(t, f, nil)
	snap := f.client.Snapshot()
	var lines, answers [][]byte
	for i := 0; i < 9; i++ {
		src, dst := f.vps[i%len(f.vps)], f.targets[i%len(f.targets)]
		lines = append(lines, []byte(batchLine(src, dst)))
		answers = append(answers, encoderLine(t, resultFor(ipStr(src), ipStr(dst), snap.Day(), queryPair(snap, src, dst), false)))
	}
	_, badLine := api.ParseLine([]byte("this is not json"))
	for _, tc := range []struct {
		name, url string
		body      *pausedBody
		answered  int
		errMsg    string
	}{
		{"malformed line", "/v1/batch?window=4",
			&pausedBody{segs: [][]byte{append(bytes.Join(lines, nil), "this is not json\n"...)}},
			9, "line 10: " + badLine.Error()},
		// The trees are warm by now: the first window makes its deadline.
		{"request deadline", "/v1/batch?window=4&deadline_ms=150",
			&pausedBody{segs: [][]byte{bytes.Join(lines[:4], nil), bytes.Join(lines[4:], nil)}, pause: 250 * time.Millisecond},
			4, "batch aborted after 4 results: context deadline exceeded"},
	} {
		w := newDuplexWriter()
		w.beforeWrite = func(int) error { time.Sleep(30 * time.Millisecond); return nil }
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, tc.url, tc.body))
		want := append(bytes.Join(answers[:tc.answered], nil), encoderLine(t, queryResult{Error: tc.errMsg})...)
		if !bytes.Equal(w.body.Bytes(), want) {
			t.Errorf("%s: body\n%s\nwant\n%s", tc.name, w.body.Bytes(), want)
		}
	}
}
