package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	inano "inano"
	"inano/internal/netsim"
)

// postFeedback POSTs an NDJSON report and decodes the summary.
func postFeedback(t *testing.T, url, body string) (feedbackResponse, int) {
	t.Helper()
	resp, err := http.Post(url+"/v1/feedback", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out feedbackResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding feedback response: %v", err)
	}
	return out, resp.StatusCode
}

// decodeNDJSON reads every result line of a batch response.
func decodeNDJSON(t *testing.T, r io.Reader) []queryResult {
	t.Helper()
	var out []queryResult
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var res queryResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad response line %q: %v", sc.Text(), err)
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func obsLine(src, dst netsim.Prefix, rtt float64) string {
	return fmt.Sprintf(`{"src":"%s","dst":"%s","rtt_ms":%g}`+"\n", src.HostIP(), dst.HostIP(), rtt)
}

func TestFeedbackEndpointAcceptsAndTracks(t *testing.T) {
	f := buildFixture(t, 60)
	_, ts := start(t, f, nil)

	var body strings.Builder
	n := 0
	for i, dst := range f.targets {
		if dst == f.vps[0] {
			continue
		}
		body.WriteString(obsLine(f.vps[0], dst, 50+float64(i)))
		n++
		if n == 10 {
			break
		}
	}
	out, code := postFeedback(t, ts.URL, body.String())
	if code != http.StatusOK {
		t.Fatalf("status %d: %+v", code, out)
	}
	if out.Accepted != 10 || out.RateLimited != 0 {
		t.Fatalf("summary: %+v", out)
	}
	st := f.client.FeedbackStats()
	if st.TotalSamples != 10-out.Untracked {
		t.Fatalf("tracker samples %d, accepted %d untracked %d", st.TotalSamples, out.Accepted, out.Untracked)
	}
	if st.Entries == 0 {
		t.Fatal("no destinations tracked")
	}
}

func TestFeedbackEndpointBadReport(t *testing.T) {
	f := buildFixture(t, 61)
	_, ts := start(t, f, nil)

	// Entirely malformed: 400.
	out, code := postFeedback(t, ts.URL, "not json\n")
	if code != http.StatusBadRequest {
		t.Fatalf("status %d: %+v", code, out)
	}
	// Valid prefix then garbage: the prefix is accepted, the error reported.
	body := obsLine(f.vps[0], f.targets[1], 42) + "garbage\n"
	out, code = postFeedback(t, ts.URL, body)
	if code != http.StatusOK || out.Accepted != 1 || out.Error == "" {
		t.Fatalf("partial accept: %d %+v", code, out)
	}
	// GET is not allowed.
	resp, err := http.Get(ts.URL + "/v1/feedback")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d", resp.StatusCode)
	}
}

// rollOnErr is a request context that rolls the atlas the first time a
// query asks whether it has ended: a roll that lands while the request's
// first observation is being scored.
type rollOnErr struct {
	context.Context
	once sync.Once
	roll func()
}

func (c *rollOnErr) Err() error {
	c.once.Do(c.roll)
	return c.Context.Err()
}

// TestFeedbackReportOnOneSnapshot: a report is scored on the one snapshot
// its answer names, however the atlas rolls under it. Each line reports the
// day-0 prediction of a pair the day-1 atlas predicts otherwise, so scored
// on day 0 every line errs by nothing, and a line scored on day 1 would not.
func TestFeedbackReportOnOneSnapshot(t *testing.T) {
	f := buildFixture(t, 62)
	s := New(Config{Client: f.client, Logf: t.Logf, FeedbackRate: -1})
	rolled := inano.FromAtlas(f.day0)
	if err := rolled.ApplyDelta(bytes.NewReader(f.delta)); err != nil {
		t.Fatal(err)
	}
	day0, day1 := f.client.Snapshot(), rolled.Snapshot()
	var body strings.Builder
	n := 0
	for _, dst := range f.targets {
		a, b := queryPair(day0, f.vps[0], dst), queryPair(day1, f.vps[0], dst)
		if dst != f.vps[0] && a.Found && b.Found && a.RTTMS != b.RTTMS {
			body.WriteString(obsLine(f.vps[0], dst, a.RTTMS))
			n++
		}
	}
	if n < 2 {
		t.Fatalf("the roll moves %d predictions from %v, want at least 2", n, f.vps[0])
	}
	ctx := &rollOnErr{Context: context.Background(), roll: func() {
		if err := f.client.ApplyDelta(bytes.NewReader(f.delta)); err != nil {
			t.Error(err)
		}
	}}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/feedback", strings.NewReader(body.String())).WithContext(ctx))
	var out feedbackResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%d %q: %v", rec.Code, rec.Body, err)
	}
	if d := f.client.Snapshot().Day(); d != 1 {
		t.Fatalf("serving day %d after the report, want 1: the roll did not land", d)
	}
	if out.Day != 0 || out.Accepted != n {
		t.Fatalf("answer %+v, want day 0 and %d accepted", out, n)
	}
	if sum := s.fbError.Sum(); sum != 0 {
		t.Fatalf("the report's relative errors sum to %g, want 0: some lines were scored against day 1", sum)
	}
}

func TestFeedbackRateLimitPerSource(t *testing.T) {
	f := buildFixture(t, 62)
	_, ts := start(t, f, func(c *Config) {
		c.FeedbackRate = 0.001 // effectively no refill during the test
		c.FeedbackBurst = 3
	})

	var body strings.Builder
	for i := 0; i < 5; i++ {
		body.WriteString(obsLine(f.vps[0], f.targets[1+i], 50))
	}
	out, code := postFeedback(t, ts.URL, body.String())
	if code != http.StatusOK {
		t.Fatalf("first report status %d: %+v", code, out)
	}
	if out.Accepted != 3 || out.RateLimited != 2 {
		t.Fatalf("burst not enforced: %+v", out)
	}
	// The bucket is empty now: a second report is fully rejected with 429.
	out, code = postFeedback(t, ts.URL, body.String())
	if code != http.StatusTooManyRequests || out.Accepted != 0 || out.RateLimited != 5 {
		t.Fatalf("second report: %d %+v", code, out)
	}
}

func TestRelayEndpoint(t *testing.T) {
	f := buildFixture(t, 63)
	_, ts := start(t, f, nil)

	src, dst := f.vps[0], f.vps[1]
	cands := f.vps[2:8]
	var candStrs []string
	for _, c := range cands {
		candStrs = append(candStrs, c.HostIP().String())
	}
	url := fmt.Sprintf("%s/v1/relay?src=%s&dst=%s&relays=%s&k=3",
		ts.URL, src.HostIP(), dst.HostIP(), strings.Join(candStrs, ","))
	var out relayResponse
	resp := getJSON(t, url, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Candidates != len(cands) {
		t.Fatalf("candidates = %d, want %d", out.Candidates, len(cands))
	}
	want, ok, err := f.client.Snapshot().BestRelay(context.Background(), src, dst, cands, 3)
	if err != nil {
		t.Fatal(err)
	}
	if out.Found != ok {
		t.Fatalf("found=%v, library says %v", out.Found, ok)
	}
	if ok {
		if out.Relay != want.Relay.HostIP().String() {
			t.Fatalf("relay %q, library picked %v", out.Relay, want)
		}
		if out.RTTMS <= 0 || out.MOS <= 0 {
			t.Fatalf("missing performance annotations: %+v", out)
		}
	}

	// Bad inputs are rejected.
	for _, bad := range []string{
		"/v1/relay?src=1.1.1.1&dst=2.2.2.2",                      // no relays
		"/v1/relay?src=nope&dst=2.2.2.2&relays=3.3.3.3",          // bad src
		"/v1/relay?src=1.1.1.1&dst=2.2.2.2&relays=3.3.3.3&k=-1",  // bad k
		"/v1/relay?src=1.1.1.1&dst=2.2.2.2&relays=3.3.3.3,nonIP", // bad relay
	} {
		resp, err := http.Get(ts.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestBatchPerPairDeadline: a /v1/batch line carrying deadline_ms comes
// back as a per-pair failure when its deadline expires — src/dst echoed,
// error set — while later lines and the stream itself keep going.
func TestBatchPerPairDeadline(t *testing.T) {
	f := buildFixture(t, 64)
	_, ts := start(t, f, nil)

	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", ts.URL+"/v1/batch?window=3", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	go func() {
		// Line 1 allows 1ms; by the time the window fills (after the
		// sleep below) it is long expired. Lines 2 and 3 have no deadline.
		fmt.Fprintf(pw, `{"src":"%s","dst":"%s","deadline_ms":1}`+"\n", f.vps[0].HostIP(), f.targets[1].HostIP())
		time.Sleep(100 * time.Millisecond)
		fmt.Fprintf(pw, `{"src":"%s","dst":"%s"}`+"\n", f.vps[1].HostIP(), f.targets[2].HostIP())
		fmt.Fprintf(pw, `{"src":"%s","dst":"%s"}`+"\n", f.vps[2].HostIP(), f.targets[3].HostIP())
		pw.Close()
	}()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := decodeNDJSON(t, resp.Body)
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3: %+v", len(lines), lines)
	}
	if lines[0].Error == "" || lines[0].Src == "" || lines[0].Found {
		t.Fatalf("line 1 should be a per-pair deadline failure: %+v", lines[0])
	}
	for i := 1; i < 3; i++ {
		if lines[i].Error != "" {
			t.Fatalf("line %d failed: %+v", i+1, lines[i])
		}
	}
	// A negative per-line deadline is malformed input and terminates the
	// stream with a terminal (no-src) error line.
	body := fmt.Sprintf(`{"src":"%s","dst":"%s","deadline_ms":-5}`+"\n", f.vps[0].HostIP(), f.targets[1].HostIP())
	resp2, err := http.Post(ts.URL+"/v1/batch", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	lines = decodeNDJSON(t, resp2.Body)
	if len(lines) != 1 || lines[0].Error == "" || lines[0].Src != "" {
		t.Fatalf("want one terminal error line, got %+v", lines)
	}
}
