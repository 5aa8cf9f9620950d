package feedback

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"inano/internal/netsim"
)

func testObs(i int) UpstreamObservation {
	return UpstreamObservation{
		Src: netsim.IP(0x0a000101), Dst: netsim.IP(0x0a000201 + uint32(i)),
		RTTMS: 50 + float64(i), PredictedMS: 40,
	}
}

// obsServer answers /v1/observations accepting everything (or failing the
// first failN requests with 503).
func obsServer(t *testing.T, failN *atomic.Int64) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var received atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failN != nil && failN.Add(-1) >= 0 {
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		obs, err := ParseObservationReport(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		received.Add(int64(len(obs)))
		fmt.Fprintf(w, `{"accepted":%d}`, len(obs))
	}))
	t.Cleanup(srv.Close)
	return srv, &received
}

func TestUploaderFlush(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		obs, err := ParseObservationReport(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		sizes = append(sizes, len(obs))
		mu.Unlock()
		fmt.Fprintf(w, `{"accepted":%d}`, len(obs))
	}))
	defer srv.Close()
	u := NewUploader(srv.URL)
	for i := 0; i < 600; i++ {
		if !u.Add(testObs(i)) {
			t.Fatalf("observation %d dropped below the cap", i)
		}
	}
	n, err := u.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 600 {
		t.Fatalf("shipped %d, want 600", n)
	}
	if u.Len() != 0 {
		t.Fatalf("queue not drained: %d", u.Len())
	}
	if fmt.Sprint(sizes) != "[256 256 88]" {
		t.Fatalf("POST sizes %v, want [256 256 88]", sizes)
	}
	if st := u.Stats(); st.Shipped != 600 || st.Flushes != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestUploaderBufferCapDropsOldest(t *testing.T) {
	u := NewUploader("http://unused")
	for i := 0; i < 1024; i++ {
		if !u.Add(testObs(i)) {
			t.Fatalf("observation %d dropped below the cap", i)
		}
	}
	if u.Add(testObs(1024)) {
		t.Fatal("the 1025th observation reported no drop")
	}
	if u.Len() != 1024 {
		t.Fatalf("queue = %d, want cap 1024", u.Len())
	}
	st := u.Stats()
	if st.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", st.Dropped)
	}
	// The survivors are the newest 1024.
	u.mu.Lock()
	first := u.queue[0]
	u.mu.Unlock()
	if first.Dst != testObs(1).Dst {
		t.Fatalf("oldest surviving = %v, want obs 1", first.Dst)
	}
}

func TestUploaderRetryBackoff(t *testing.T) {
	var fail atomic.Int64
	fail.Store(2) // first two attempts 503, third succeeds
	srv, received := obsServer(t, &fail)
	var sleeps []time.Duration
	u := NewUploader(srv.URL)
	u.sleep = func(_ context.Context, d time.Duration) error {
		sleeps = append(sleeps, d)
		return nil
	}
	u.Add(testObs(0))
	n, err := u.Flush(context.Background())
	if err != nil || n != 1 {
		t.Fatalf("flush: n=%d err=%v", n, err)
	}
	if received.Load() != 1 {
		t.Fatalf("server saw %d", received.Load())
	}
	// Two retries with doubling backoff.
	if len(sleeps) != 2 || sleeps[0] != 500*time.Millisecond || sleeps[1] != time.Second {
		t.Fatalf("backoff schedule: %v", sleeps)
	}
}

func TestUploaderRequeuesOnFailure(t *testing.T) {
	var fail atomic.Int64
	fail.Store(1000) // never succeeds
	srv, _ := obsServer(t, &fail)
	u := NewUploader(srv.URL)
	u.sleep = func(context.Context, time.Duration) error { return nil }
	for i := 0; i < 3; i++ {
		u.Add(testObs(i))
	}
	if _, err := u.Flush(context.Background()); err == nil {
		t.Fatal("flush succeeded against a failing server")
	}
	if u.Len() != 3 {
		t.Fatalf("failed batch not re-queued: %d", u.Len())
	}
	if st := u.Stats(); st.FlushErrors != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestUploaderBadRequestNotRetried(t *testing.T) {
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": "malformed"})
	}))
	defer srv.Close()
	u := NewUploader(srv.URL)
	u.sleep = func(context.Context, time.Duration) error { return nil }
	u.Add(testObs(0))
	if _, err := u.Flush(context.Background()); err == nil {
		t.Fatal("flush reported success on a 400")
	}
	if attempts.Load() != 1 {
		t.Fatalf("400 retried %d times; a final verdict must not be retried", attempts.Load())
	}
	// A finally-rejected batch is dropped, not re-queued: it must not
	// head-of-line-block fresh observations behind a poison batch.
	if u.Len() != 0 {
		t.Fatalf("finally rejected batch re-queued: %d", u.Len())
	}
	if st := u.Stats(); st.Rejected != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestUploaderRateLimitedTailRequeued: the server's partial grant is its
// "retry after backing off" contract — the rate-limited tail goes back to
// the front of the queue and the flush stops instead of hammering the
// drained bucket (or dropping the tail).
func TestUploaderRateLimitedTailRequeued(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		obs, _ := ParseObservationReport(r.Body)
		grant := 2
		if len(obs) < grant {
			grant = len(obs)
		}
		fmt.Fprintf(w, `{"accepted":%d,"rate_limited":%d}`, grant, len(obs)-grant)
	}))
	defer srv.Close()
	u := NewUploader(srv.URL)
	for i := 0; i < 5; i++ {
		u.Add(testObs(i))
	}
	n, err := u.Flush(context.Background())
	if err != nil || n != 2 {
		t.Fatalf("flush: n=%d err=%v", n, err)
	}
	if u.Len() != 3 {
		t.Fatalf("rate-limited tail not re-queued: %d buffered", u.Len())
	}
	// The tail is the *unprocessed* observations, in order.
	u.mu.Lock()
	first := u.queue[0]
	u.mu.Unlock()
	if first.Dst != testObs(2).Dst {
		t.Fatalf("re-queued head = %v, want obs 2", first.Dst)
	}
	// A later flush (bucket refilled) drains the rest.
	if n, err := u.Flush(context.Background()); err != nil || n != 2 {
		t.Fatalf("second flush: n=%d err=%v", n, err)
	}
	if n, err := u.Flush(context.Background()); err != nil || n != 1 {
		t.Fatalf("third flush: n=%d err=%v", n, err)
	}
}

func TestUploaderObserveFromTraceroutes(t *testing.T) {
	srv, received := obsServer(t, nil)
	u := NewUploader(srv.URL)
	dst := netsim.Prefix(0x0a0002)
	trs := []Traceroute{
		{ // carries a residual: queued
			Src: netsim.Prefix(0x0a0001), Dst: dst,
			Hops:           []Hop{{IP: dst.HostIP(), RTTMS: 50}},
			PredictedRTTMS: 40, Predicted: true,
		},
		{ // destination never answered: skipped
			Src: netsim.Prefix(0x0a0001), Dst: dst,
			Hops:           []Hop{{IP: 0, RTTMS: 0}},
			PredictedRTTMS: 40, Predicted: true,
		},
	}
	u.Observe(trs)
	if u.Len() != 1 {
		t.Fatalf("queued %d observations, want 1", u.Len())
	}
	if n, err := u.Flush(context.Background()); err != nil || n != 1 || received.Load() != 1 {
		t.Fatalf("flush: n=%d err=%v server=%d", n, err, received.Load())
	}
}
