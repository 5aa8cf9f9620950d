package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestPeerIDEchoed(t *testing.T) {
	f := buildFixture(t, 230)
	_, ts := start(t, f, func(cfg *Config) { cfg.PeerID = "replica-7" })

	var body struct {
		Status string `json:"status"`
		Peer   string `json:"peer"`
	}
	resp := getJSON(t, ts.URL+"/healthz", &body)
	if body.Peer != "replica-7" {
		t.Fatalf("healthz peer = %q, want replica-7", body.Peer)
	}
	if got := resp.Header.Get("X-Inano-Peer"); got != "replica-7" {
		t.Fatalf("X-Inano-Peer = %q, want replica-7", got)
	}
}

// TestDrainServesInFlightRefusesNew is the rolling-restart contract: a
// draining replica flips /healthz to 503 (so a router pulls it from the
// ring), refuses new serving requests with 503, but keeps answering the
// streams it already accepted.
func TestDrainServesInFlightRefusesNew(t *testing.T) {
	f := buildFixture(t, 231)
	s, ts := start(t, f, func(cfg *Config) { cfg.PeerID = "r1" })
	src, dst := ipStr(f.vps[0]), ipStr(f.targets[3])

	// Open a batch stream and get one answer so the request is in flight.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch?window=1", pr)
	if err != nil {
		t.Fatal(err)
	}
	resCh := make(chan *http.Response, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			errCh <- err
			return
		}
		resCh <- resp
	}()
	line := fmt.Sprintf(`{"src":%q,"dst":%q}`+"\n", src, dst)
	if _, err := io.WriteString(pw, line); err != nil {
		t.Fatal(err)
	}
	var resp *http.Response
	select {
	case resp = <-resCh:
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("no response headers")
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}

	s.StartDraining()
	if n := s.InFlight(); n < 1 {
		t.Fatalf("InFlight = %d with a batch stream open", n)
	}

	// Health flips to 503 "draining" so the router's next pass drops us.
	var h struct {
		Status   string `json:"status"`
		Inflight int64  `json:"inflight"`
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("healthz = %d %q, want 503 draining", hr.StatusCode, h.Status)
	}
	if h.Inflight < 1 {
		t.Fatalf("healthz inflight = %d, want >= 1", h.Inflight)
	}

	// New serving requests are refused with a retryable 503.
	qr, err := http.Get(fmt.Sprintf("%s/v1/query?src=%s&dst=%s", ts.URL, src, dst))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, qr.Body)
	qr.Body.Close()
	if qr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query during drain: %d, want 503", qr.StatusCode)
	}
	if qr.Header.Get("X-Inano-Draining") != "1" {
		t.Fatal("503 during drain missing X-Inano-Draining header")
	}

	// Observability stays up while draining.
	for _, path := range []string{"/metrics", "/debug/stats"} {
		mr, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, mr.Body)
		mr.Body.Close()
		if mr.StatusCode != http.StatusOK {
			t.Fatalf("%s during drain: %d, want 200", path, mr.StatusCode)
		}
	}

	// The in-flight stream still answers new pairs.
	if _, err := io.WriteString(pw, line); err != nil {
		t.Fatal(err)
	}
	answer, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(answer, dst) {
		t.Fatalf("in-flight answer during drain: %q", answer)
	}
	pw.Close()
	if rest, err := io.ReadAll(br); err != nil || strings.Contains(string(rest), "error") {
		t.Fatalf("stream end: %q, %v", rest, err)
	}

	// With the stream closed the replica goes idle — what the daemon's
	// drain loop polls for before exiting 0.
	deadline := time.Now().Add(5 * time.Second)
	for s.InFlight() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := s.InFlight(); n != 0 {
		t.Fatalf("InFlight = %d after stream closed", n)
	}
}
