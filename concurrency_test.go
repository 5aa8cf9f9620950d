package inano

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"inano/internal/atlas"
)

// encodeDelta round-trips a delta through its codec, as a client applying
// swarm-fetched updates would see it.
func encodeDelta(t testing.TB, d *atlas.Delta) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStressQueriesDuringDeltaChurn hammers Query, QueryReqs, and a reused
// StreamBatch from many goroutines while the main goroutine ping-pongs the
// atlas between two days with ApplyDelta, rebuilding the engine each time.
// Run under -race this is the library-level concurrency stress; it also
// checks every answer is internally consistent regardless of which
// snapshot served it.
func TestStressQueriesDuringDeltaChurn(t *testing.T) {
	f0 := buildFixture(t, 120, 0)
	f1 := buildFixture(t, 120, 1)
	fwd := encodeDelta(t, atlas.Diff(f0.a, f1.a))
	back := encodeDelta(t, atlas.Diff(f1.a, f0.a))

	c := FromAtlas(f0.a)
	var stop atomic.Bool
	var queries atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sb *StreamBatch
			for i := 0; !stop.Load(); i++ {
				src := f0.vps[(g+i)%len(f0.vps)]
				switch g % 3 {
				case 0:
					reqs := make([]PairReq, 6)
					for k := range reqs {
						reqs[k] = PairOf(src.HostIP(), f0.targets[(g*7+i+k)%len(f0.targets)].HostIP())
					}
					infos, _, err := c.Snapshot().QueryReqs(context.Background(), reqs)
					if err != nil {
						t.Error(err)
						return
					}
					for _, info := range infos {
						checkConsistent(t, info)
					}
					queries.Add(int64(len(infos)))
				case 1:
					// A stream pins its snapshot: windows keep answering
					// from it while the client rolls underneath.
					if sb == nil || i%16 == 0 {
						sb = c.Snapshot().StreamBatch(true)
					}
					reqs := make([]PairReq, 4)
					for k := range reqs {
						reqs[k] = PairReq{Src: src, Dst: f0.targets[(g*11+i*3+k)%len(f0.targets)]}
					}
					infos, _, err := sb.Run(context.Background(), reqs)
					if err != nil {
						t.Error(err)
						return
					}
					for _, info := range infos {
						checkConsistent(t, info)
					}
					queries.Add(int64(len(reqs)))
				default:
					checkConsistent(t, queryPair(c, src, f0.targets[(g*13+i*5)%len(f0.targets)]))
					queries.Add(1)
				}
			}
		}(g)
	}

	// Churn the engine: each ApplyDelta swaps in a freshly built engine
	// while queries are in flight on the old snapshot.
	deadline := time.Now().Add(2 * time.Second)
	flips := 0
	for time.Now().Before(deadline) {
		d := fwd
		if flips%2 == 1 {
			d = back
		}
		if err := c.ApplyDelta(bytes.NewReader(d)); err != nil {
			t.Errorf("flip %d: %v", flips, err)
			break
		}
		flips++
	}
	stop.Store(true)
	wg.Wait()
	if flips < 2 {
		t.Fatalf("engine rebuilt only %d times", flips)
	}
	if queries.Load() == 0 {
		t.Fatal("no queries issued during churn")
	}
	t.Logf("%d queries raced %d engine rebuilds", queries.Load(), flips)
}

// checkConsistent asserts the invariants any answer must satisfy no matter
// which atlas snapshot produced it.
func checkConsistent(t *testing.T, info PathInfo) {
	t.Helper()
	if !info.Found {
		return
	}
	if info.RTTMS != info.Fwd.LatencyMS+info.Rev.LatencyMS {
		t.Errorf("RTT %v != fwd %v + rev %v", info.RTTMS, info.Fwd.LatencyMS, info.Rev.LatencyMS)
	}
	if info.LossRate < 0 || info.LossRate > 1 {
		t.Errorf("loss %v out of range", info.LossRate)
	}
}

// TestClientQueryReqsMatchesSequential is the client-level parity check:
// QueryReqs must return exactly what N sequential Query calls return, in
// order, for one source ranking many destinations and for unrelated pairs.
func TestClientQueryReqsMatchesSequential(t *testing.T) {
	f := buildFixture(t, 121, 0)
	c := FromAtlas(f.a)
	var pairs [][2]IP
	for i := 0; i < 25; i++ {
		pairs = append(pairs, [2]IP{f.vps[0].HostIP(), f.targets[(i*3)%len(f.targets)].HostIP()})
	}
	for i := 0; i < 10; i++ {
		pairs = append(pairs, [2]IP{f.vps[i%len(f.vps)].HostIP(), f.targets[(i*7)%len(f.targets)].HostIP()})
	}
	reqs := make([]PairReq, len(pairs))
	for i, pr := range pairs {
		reqs[i] = PairOf(pr[0], pr[1])
	}
	batch, expired, err := c.Snapshot().QueryReqs(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(pairs) || len(expired) != len(pairs) {
		t.Fatalf("batch returned %d results, %d expiry flags for %d pairs", len(batch), len(expired), len(pairs))
	}
	for i, pr := range pairs {
		single := c.Query(pr[0], pr[1])
		if expired[i] || !reflect.DeepEqual(batch[i], single) {
			t.Fatalf("pair %d: batch %+v (expired %v) != single %+v", i, batch[i], expired[i], single)
		}
	}
}

// TestQueryReqsCancelled checks a cancelled batch surfaces the context
// error instead of partial results.
func TestQueryReqsCancelled(t *testing.T) {
	f := buildFixture(t, 122, 0)
	c := FromAtlas(f.a)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := []PairReq{PairOf(f.vps[0].HostIP(), f.targets[0].HostIP()), PairOf(f.vps[0].HostIP(), f.targets[1].HostIP())}
	if _, _, err := c.Snapshot().QueryReqs(ctx, reqs); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
