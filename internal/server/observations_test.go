package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"inano/internal/feedback"
	"inano/internal/netsim"

	inano "inano"
)

func postObservations(t *testing.T, url, body string) (feedback.ObservationsSummary, int) {
	t.Helper()
	resp, err := http.Post(url+"/v1/observations", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out feedback.ObservationsSummary
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding observations response: %v", err)
	}
	return out, resp.StatusCode
}

func upObsLine(src, dst netsim.Prefix, rtt, predicted float64) string {
	return fmt.Sprintf(`{"src":"%s","dst":"%s","rtt_ms":%g,"predicted_ms":%g}`+"\n",
		src.HostIP(), dst.HostIP(), rtt, predicted)
}

// predictablePair finds a (vp, target) pair the fixture's atlas answers.
func predictablePair(t *testing.T, f *fixture) (netsim.Prefix, netsim.Prefix, float64) {
	t.Helper()
	for _, vp := range f.vps {
		for _, dst := range f.targets {
			if dst == vp {
				continue
			}
			if info := queryPair(f.client.Snapshot(), vp, dst); info.Found {
				return vp, dst, info.RTTMS
			}
		}
	}
	t.Fatal("fixture has no predictable pair")
	return 0, 0, 0
}

func TestObservationsDisabledWithoutAggregator(t *testing.T) {
	f := buildFixture(t, 70)
	_, ts := start(t, f, nil)
	src, dst, pred := predictablePair(t, f)
	out, code := postObservations(t, ts.URL, upObsLine(src, dst, pred+20, pred))
	if code != http.StatusNotImplemented {
		t.Fatalf("status %d (%+v), want 501 without an aggregator", code, out)
	}
}

func TestObservationsIngestAndAggregate(t *testing.T) {
	f := buildFixture(t, 71)
	agg := feedback.NewAggregator()
	_, ts := start(t, f, func(c *Config) { c.Aggregator = agg })

	src, dst, pred := predictablePair(t, f)
	// The reporter claims a nonsense predicted_ms; the server must compute
	// the residual against its own prediction, not the claim.
	out, code := postObservations(t, ts.URL, upObsLine(src, dst, pred+20, 1))
	if code != http.StatusOK || out.Accepted != 1 || out.Unknown != 0 {
		t.Fatalf("ingest: %d %+v", code, out)
	}
	snap := agg.Snapshot(0)
	if len(snap.Prefixes) != 1 {
		t.Fatalf("aggregate: %+v", snap)
	}
	ag := snap.Prefixes[0]
	if ag.Prefix != dst || ag.Reporters != 1 {
		t.Fatalf("aggregate: %+v", ag)
	}
	if d := ag.ResidualMS - 20; d > 0.01 || d < -0.01 {
		t.Fatalf("residual %v, want ~20 (vs the server's own prediction)", ag.ResidualMS)
	}

	// An unknown destination cannot join the aggregate.
	out, code = postObservations(t, ts.URL,
		fmt.Sprintf(`{"src":"%s","dst":"203.0.113.9","rtt_ms":50,"predicted_ms":40}`+"\n", src.HostIP()))
	if code != http.StatusOK || out.Unknown != 1 || out.Accepted != 0 {
		t.Fatalf("unknown dst: %d %+v", code, out)
	}

	// Malformed reports are rejected wholesale; a valid prefix before the
	// bad line is still accounted.
	if _, code := postObservations(t, ts.URL, "junk\n"); code != http.StatusBadRequest {
		t.Fatalf("malformed report status %d", code)
	}
	out, code = postObservations(t, ts.URL, upObsLine(src, dst, pred+10, pred)+"junk\n")
	if code != http.StatusOK || out.Accepted != 1 || out.Error == "" {
		t.Fatalf("partial accept: %d %+v", code, out)
	}

	// GET is not allowed.
	resp, err := http.Get(ts.URL + "/v1/observations")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d", resp.StatusCode)
	}
}

// TestObservationsReporterIdentityFromConnection: when the serving atlas
// can place the *connecting* peer, that cluster is the reporter identity —
// rotating the report's claimed src field does not buy extra reporter
// slots in the aggregate.
func TestObservationsReporterIdentityFromConnection(t *testing.T) {
	f := buildFixture(t, 74)
	agg := feedback.NewAggregator()
	// Bind the loopback prefix (what httptest connections resolve to)
	// into the serving atlas so the connection is placeable.
	loopIP, err := netsim.ParseIPv4("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	a := f.day0.Clone()
	a.PrefixCluster[netsim.PrefixOf(loopIP)] = a.PrefixCluster[f.vps[0]]
	// The engine serves from a compiled snapshot of the atlas, so the
	// patched attachment table only takes effect through a rebuild.
	f.client = inano.FromAtlas(a)
	_, ts := start(t, f, func(c *Config) { c.Aggregator = agg })

	src1, dst, pred := predictablePair(t, f)
	var src2 netsim.Prefix
	for _, vp := range f.vps {
		if vp != src1 && vp != dst && queryPair(f.client.Snapshot(), vp, dst).Found {
			src2 = vp
			break
		}
	}
	if src2 == 0 {
		t.Skip("fixture has no second predictable source")
	}
	body := upObsLine(src1, dst, pred+10, pred) + upObsLine(src2, dst, pred+10, pred)
	out, code := postObservations(t, ts.URL, body)
	if code != http.StatusOK || out.Accepted != 2 {
		t.Fatalf("ingest: %d %+v", code, out)
	}
	snap := agg.Snapshot(0)
	if len(snap.Prefixes) != 1 {
		t.Fatalf("aggregate: %+v", snap)
	}
	if got := snap.Prefixes[0].Reporters; got != 1 {
		t.Fatalf("claimed-src rotation bought %d reporter slots, want 1 (connection identity)", got)
	}
}

func TestObservationsRateLimit(t *testing.T) {
	f := buildFixture(t, 72)
	agg := feedback.NewAggregator()
	_, ts := start(t, f, func(c *Config) {
		c.Aggregator = agg
		c.ObservationRate = 0.001
		c.ObservationBurst = 2
	})
	src, dst, pred := predictablePair(t, f)
	var body strings.Builder
	for i := 0; i < 5; i++ {
		body.WriteString(upObsLine(src, dst, pred+10+float64(i), pred))
	}
	out, code := postObservations(t, ts.URL, body.String())
	if code != http.StatusOK || out.Accepted != 2 || out.RateLimited != 3 {
		t.Fatalf("partial grant: %d %+v", code, out)
	}
	// The bucket is empty: the next report is fully limited -> 429.
	out, code = postObservations(t, ts.URL, upObsLine(src, dst, pred+10, pred))
	if code != http.StatusTooManyRequests || out.RateLimited != 1 {
		t.Fatalf("drained bucket: %d %+v", code, out)
	}
}

func TestRunObservationSnapshots(t *testing.T) {
	f := buildFixture(t, 73)
	agg := feedback.NewAggregator()
	s, ts := start(t, f, func(c *Config) { c.Aggregator = agg })
	src, dst, pred := predictablePair(t, f)
	if out, code := postObservations(t, ts.URL, upObsLine(src, dst, pred+30, pred)); code != 200 || out.Accepted != 1 {
		t.Fatalf("ingest: %d %+v", code, out)
	}

	path := filepath.Join(t.TempDir(), "obs.json")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.RunObservationSnapshots(ctx, path, 10*time.Millisecond)
	}()
	waitFor(t, time.Second, func() bool {
		_, err := os.Stat(path)
		return err == nil
	})
	cancel()
	<-done

	snap, err := feedback.LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Prefixes) != 1 || snap.Prefixes[0].Prefix != dst {
		t.Fatalf("snapshot: %+v", snap)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
