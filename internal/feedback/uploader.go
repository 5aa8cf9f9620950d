package feedback

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

const (
	// uploadMaxBuffered caps observations held between flushes. When full,
	// the oldest observation is dropped: fresher residuals supersede stale
	// ones by construction.
	uploadMaxBuffered = 1024
	// uploadMaxBatch caps observations shipped per POST, well under the
	// server's MaxUpstreamObservations; a larger buffer drains over
	// several requests.
	uploadMaxBatch = 256
	// uploadMaxAttempts bounds tries per flush including the first.
	uploadMaxAttempts = 3
	// uploadBackoff is the first retry delay, doubled per attempt.
	uploadBackoff = 500 * time.Millisecond
)

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// UploadStats accounts an uploader's lifetime activity.
type UploadStats struct {
	// Buffered is the current queue depth.
	Buffered int
	// Dropped counts observations discarded because the buffer was full.
	Dropped int
	// Shipped counts observations the server acknowledged.
	Shipped int
	// Rejected counts observations the server rate-limited or refused.
	Rejected int
	// Flushes and FlushErrors count flush calls and the ones that failed
	// after all retries.
	Flushes, FlushErrors int
}

// Uploader batches a client's corrective observations and ships them to
// the build server's POST /v1/observations endpoint as NDJSON, with
// bounded buffering and retry/backoff. Safe for concurrent use; a
// Corrector's Observe hook can feed it while another goroutine flushes.
type Uploader struct {
	url    string
	client *http.Client
	sleep  func(context.Context, time.Duration) error // test hook for backoff waits

	mu    sync.Mutex
	queue []UpstreamObservation
	st    UploadStats
}

// NewUploader builds an uploader shipping to url, the build server's
// observation endpoint (e.g. http://build:7353/v1/observations).
func NewUploader(url string) *Uploader {
	return &Uploader{url: url, client: &http.Client{Timeout: 10 * time.Second}, sleep: sleepCtx}
}

// Add queues one observation; when the buffer is full the oldest queued
// observation is dropped to make room (fresher residuals supersede stale
// ones). It reports whether the observation was queued without a drop.
func (u *Uploader) Add(o UpstreamObservation) bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	clean := true
	if len(u.queue) >= uploadMaxBuffered {
		drop := len(u.queue) - uploadMaxBuffered + 1
		u.queue = append(u.queue[:0], u.queue[drop:]...)
		u.st.Dropped += drop
		clean = false
	}
	u.queue = append(u.queue, o)
	return clean
}

// Observe queues the upstream observations a batch of corrective
// traceroutes carries — the shape of feedback.Config.Observe, so an
// uploader plugs directly into a Corrector:
//
//	cfg.Observe = uploader.Observe
func (u *Uploader) Observe(trs []Traceroute) {
	for i := range trs {
		if o, ok := ObservationFromTraceroute(&trs[i]); ok {
			u.Add(o)
		}
	}
}

// Len reports the current queue depth.
func (u *Uploader) Len() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.queue)
}

// Stats reports lifetime accounting.
func (u *Uploader) Stats() UploadStats {
	u.mu.Lock()
	defer u.mu.Unlock()
	st := u.st
	st.Buffered = len(u.queue)
	return st
}

// ObservationsSummary is the answer to one /v1/observations report: the
// line the server writes, and the Uploader reads.
type ObservationsSummary struct {
	// Accepted observations entered the aggregate (as a residual, a hop
	// path, or both).
	Accepted int `json:"accepted"`
	// Paths counts accepted observations whose hop list survived
	// clusterization and joined the structural aggregate.
	Paths int `json:"paths"`
	// PathsRejected counts hop lists the ingest refused: unmappable or
	// looping tails (see ClusterizeHops). The observation's
	// scalar residual, if any, was still processed.
	PathsRejected int `json:"paths_rejected"`
	// RateLimited observations were dropped by the per-source token
	// bucket; retry after backing off.
	RateLimited int `json:"rate_limited"`
	// Unknown observations named destinations (or came from sources) the
	// serving atlas cannot place, so they cannot join the aggregate.
	Unknown int `json:"unknown"`
	// Error reports a malformed report line; observations before it were
	// still processed.
	Error string `json:"error,omitempty"`
	// Day is the serving atlas day the report was scored against.
	Day int `json:"day"`
}

// Flush ships queued observations in POSTs of at most 256 until the queue
// is empty or the server pushes back. The outcome of each batch decides
// its observations' fate:
//
//   - accepted / unknown-destination: done / dropped (counted Rejected) —
//     re-sending an unknown destination meets the same verdict;
//   - rate-limited (the server's "retry after backing off" contract):
//     re-queued in front, and the flush stops — the bucket needs time;
//   - transport failure after 3 attempts: re-queued in front, error
//     returned;
//   - a final 4xx verdict (malformed, endpoint disabled): the batch is
//     dropped, not re-queued — re-sending identical bytes cannot succeed,
//     and a poison batch must not head-of-line-block fresh residuals.
//
// Re-queuing past the buffer cap drops from the *front* (the oldest,
// matching Add's policy). Returns the number of observations the server
// acknowledged.
func (u *Uploader) Flush(ctx context.Context) (int, error) {
	shipped := 0
	for {
		u.mu.Lock()
		if len(u.queue) == 0 {
			u.mu.Unlock()
			return shipped, nil
		}
		n := min(len(u.queue), uploadMaxBatch)
		batch := append([]UpstreamObservation(nil), u.queue[:n]...)
		u.queue = append(u.queue[:0], u.queue[n:]...)
		u.st.Flushes++
		u.mu.Unlock()

		resp, err := u.post(ctx, batch)
		if err != nil {
			u.mu.Lock()
			u.st.FlushErrors++
			if errors.Is(err, errFinalVerdict) {
				// The server understood the batch and refused it for good.
				u.st.Rejected += len(batch)
			} else {
				u.requeueLocked(batch)
			}
			u.mu.Unlock()
			return shipped, err
		}
		shipped += resp.Accepted
		processed := resp.Accepted + resp.Unknown // the granted prefix
		if processed > len(batch) {
			processed = len(batch)
		}
		u.mu.Lock()
		u.st.Shipped += resp.Accepted
		u.st.Rejected += resp.Unknown
		if processed < len(batch) {
			// The tail was rate-limited: keep it for a later flush and
			// stop hammering the bucket.
			u.requeueLocked(batch[processed:])
			u.mu.Unlock()
			return shipped, nil
		}
		u.mu.Unlock()
	}
}

// requeueLocked puts a batch back at the front of the queue, dropping the
// oldest entries when the cap overflows. Caller holds u.mu.
func (u *Uploader) requeueLocked(batch []UpstreamObservation) {
	merged := append(append([]UpstreamObservation(nil), batch...), u.queue...)
	if over := len(merged) - uploadMaxBuffered; over > 0 {
		merged = merged[over:]
		u.st.Dropped += over
	}
	u.queue = merged
}

// post ships one batch with retry/backoff.
func (u *Uploader) post(ctx context.Context, batch []UpstreamObservation) (ObservationsSummary, error) {
	var body bytes.Buffer
	if err := EncodeObservations(&body, batch); err != nil {
		return ObservationsSummary{}, err
	}
	backoff := uploadBackoff
	var lastErr error
	for attempt := 0; attempt < uploadMaxAttempts; attempt++ {
		if attempt > 0 {
			if err := u.sleep(ctx, backoff); err != nil {
				return ObservationsSummary{}, err
			}
			backoff *= 2
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u.url, bytes.NewReader(body.Bytes()))
		if err != nil {
			return ObservationsSummary{}, err
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		resp, err := u.client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		out, err := decodeObsResponse(resp)
		if err != nil {
			lastErr = err
			// 4xx verdicts are final: the server understood the batch and
			// refused it; retrying the same bytes cannot succeed.
			if resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
				return ObservationsSummary{}, fmt.Errorf("%w: %w", errFinalVerdict, err)
			}
			continue
		}
		return out, nil
	}
	return ObservationsSummary{}, fmt.Errorf("feedback: upload failed after %d attempts: %w", uploadMaxAttempts, lastErr)
}

// errFinalVerdict marks a server rejection retrying cannot fix; Flush
// drops the batch instead of re-queuing it.
var errFinalVerdict = errors.New("final server verdict")

func decodeObsResponse(resp *http.Response) (ObservationsSummary, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return ObservationsSummary{}, err
	}
	var out ObservationsSummary
	if jsonErr := json.Unmarshal(body, &out); jsonErr != nil && resp.StatusCode == http.StatusOK {
		return ObservationsSummary{}, fmt.Errorf("feedback: bad upload response: %v", jsonErr)
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		return out, nil
	case resp.StatusCode == http.StatusTooManyRequests:
		// A fully rate-limited batch is still a server verdict on every
		// observation in it: accepted none.
		return out, nil
	default:
		msg := out.Error
		if msg == "" {
			msg = strings.TrimSpace(string(body))
		}
		return ObservationsSummary{}, fmt.Errorf("feedback: upload rejected: status %d: %s", resp.StatusCode, msg)
	}
}
