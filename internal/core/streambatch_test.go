package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"inano/internal/netsim"
)

// unknownPrefix is never in a test world's atlas.
const unknownPrefix = netsim.Prefix(0xFFFFFF)

// randomReqs draws (src, dst) pairs from the world's prefixes, mixing
// vantage points, targets, and an unknown prefix, with repeats so batches
// exercise destination grouping.
func randomReqs(rng *rand.Rand, w *world, n int) []PairReq {
	pool := make([]netsim.Prefix, 0, len(w.vps)+len(w.targets)+1)
	pool = append(pool, w.vps...)
	pool = append(pool, w.targets...)
	pool = append(pool, unknownPrefix)
	reqs := make([]PairReq, n)
	for i := range reqs {
		reqs[i] = PairReq{Src: pool[rng.Intn(len(pool))], Dst: pool[rng.Intn(len(pool))]}
	}
	return reqs
}

// samePathInfo compares answers treating nil and empty path slices as
// equal: the reusable runner keeps slice capacity across windows, so a
// not-reached leg holds an empty (not nil) slice.
func samePathInfo(a, b PathInfo) bool {
	normPred := func(p *Prediction) {
		if len(p.Clusters) == 0 {
			p.Clusters = nil
		}
		if len(p.ASPath) == 0 {
			p.ASPath = nil
		}
	}
	normPred(&a.Fwd)
	normPred(&a.Rev)
	normPred(&b.Fwd)
	normPred(&b.Rev)
	return reflect.DeepEqual(a, b)
}

// TestStreamBatchRunMatchesQuery is the batch engine's one reference check:
// under every algorithm variant, with and without AS paths, every answer of
// Run equals the per-pair Engine.Query of an engine of its own over the
// same atlas. The windows run in sequence on one runner, so its buffers
// grow, shrink, empty and grow again between them; the world carries
// residual corrections on both kinds of endpoint, so the forward-leg-only
// correction is part of what is compared.
func TestStreamBatchRunMatchesQuery(t *testing.T) {
	w := buildWorld(t, 83)
	for i := 0; i < 6; i++ {
		w.a.AdjustMS[w.targets[i]] = float32(i) - 2.5
		w.a.GlobalAdjustMS[w.vps[i]] = 1.25 * float32(i+1)
	}
	windows := []struct {
		name string
		reqs func(rng *rand.Rand) []PairReq
	}{
		{"random", func(rng *rand.Rand) []PairReq { return randomReqs(rng, w, 60) }},
		{"one pair", func(rng *rand.Rand) []PairReq { return randomReqs(rng, w, 1) }},
		{"duplicates", func(rng *rand.Rand) []PairReq {
			reqs := make([]PairReq, 0, 24)
			for i := 0; i < 8; i++ {
				reqs = append(reqs,
					PairReq{Src: w.vps[0], Dst: w.targets[1]},
					PairReq{Src: w.targets[1], Dst: w.vps[0]},
					PairReq{Src: w.targets[1], Dst: w.targets[1]})
			}
			return reqs
		}},
		{"empty", func(*rand.Rand) []PairReq { return nil }},
		{"unknown prefixes", func(*rand.Rand) []PairReq {
			return []PairReq{
				{Src: unknownPrefix, Dst: unknownPrefix},
				{Src: w.vps[0], Dst: unknownPrefix},
				{Src: unknownPrefix, Dst: w.targets[0]},
			}
		}},
		{"one source, many destinations", func(*rand.Rand) []PairReq {
			reqs := make([]PairReq, len(w.targets))
			for i, d := range w.targets {
				reqs[i] = PairReq{Src: w.vps[1], Dst: d}
			}
			return reqs
		}},
		{"random, larger", func(rng *rand.Rand) []PairReq { return randomReqs(rng, w, 137) }},
		// The one-source × N-targets shape: a prefix repeats request after
		// request in the same slot, known or not, then changes slot.
		{"consecutive repeats, known then unknown then known", func(*rand.Rand) []PairReq {
			a, b, u := w.vps[0], w.targets[2], unknownPrefix
			return []PairReq{
				{Src: a, Dst: b}, {Src: a, Dst: b},
				{Src: u, Dst: b}, {Src: u, Dst: b},
				{Src: a, Dst: b},
				{Src: a, Dst: u}, {Src: a, Dst: u},
				{Src: a, Dst: b},
				{Src: b, Dst: a}, {Src: b, Dst: b}, {Src: u, Dst: u}, {Src: u, Dst: u},
			}
		}},
	}
	for name, opts := range allOptionVariants() {
		for _, noASPaths := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/noASPaths=%v", name, noASPaths), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(name))))
				ref := New(w.a, opts)
				sb := New(w.a, opts).NewStreamBatch(noASPaths)
				for _, win := range windows {
					reqs := win.reqs(rng)
					got, expired, err := sb.Run(context.Background(), reqs)
					if err != nil {
						t.Fatalf("%s: %v", win.name, err)
					}
					if len(got) != len(reqs) || len(expired) != len(reqs) {
						t.Fatalf("%s: %d answers, %d expiry flags for %d pairs", win.name, len(got), len(expired), len(reqs))
					}
					for i, rq := range reqs {
						if expired[i] {
							t.Fatalf("%s pair %d expired with no deadline", win.name, i)
						}
						want := ref.Query(rq.Src, rq.Dst)
						if noASPaths {
							want.Fwd.ASPath, want.Rev.ASPath = nil, nil
						}
						if !samePathInfo(got[i], want) {
							t.Fatalf("%s pair %d (%v->%v), noASPaths=%v:\nRun   %+v\nQuery %+v",
								win.name, i, rq.Src, rq.Dst, noASPaths, got[i], want)
						}
					}
				}
			})
		}
	}
}

// TestStreamBatchDeadlines checks the per-pair deadline contract: pairs
// whose deadline already passed come back expired with a zero answer,
// while the rest of the window is answered normally. That includes a
// patient pair sharing the hopeless pair's destination: a group's tree
// build is bounded by its *latest* member deadline, and after the build
// each member is checked against its own.
func TestStreamBatchDeadlines(t *testing.T) {
	w := buildWorld(t, 85)
	e := New(w.a, INanoOptions())
	past := time.Now().Add(-time.Second)
	future := time.Now().Add(time.Minute)
	reqs := []PairReq{
		{Src: w.vps[0], Dst: w.targets[1], Deadline: past},
		{Src: w.vps[1], Dst: w.targets[1], Deadline: future}, // same destination, patient
		{Src: w.vps[2], Dst: w.targets[2]},                   // no deadline
		{Src: w.vps[3], Dst: w.targets[3], Deadline: past},   // a group that is all expired
	}
	got, expired, err := e.NewStreamBatch(false).Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !expired[0] || !expired[3] {
		t.Fatalf("past-deadline pairs not expired: %v", expired)
	}
	if expired[1] || expired[2] {
		t.Fatalf("patient pairs expired: %v", expired)
	}
	if !samePathInfo(got[0], PathInfo{}) || !samePathInfo(got[3], PathInfo{}) {
		t.Fatal("expired pairs carry answers")
	}
	for i := 1; i <= 2; i++ {
		if want := e.Query(reqs[i].Src, reqs[i].Dst); !samePathInfo(got[i], want) {
			t.Fatalf("pair %d: %+v != single %+v", i, got[i], want)
		}
	}
}

// TestStreamBatchCancelled checks that cancelling the context aborts the
// whole window with ctx.Err() before doing work, per-pair deadlines or not.
func TestStreamBatchCancelled(t *testing.T) {
	w := buildWorld(t, 85)
	e := New(w.a, INanoOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := randomReqs(rand.New(rand.NewSource(1)), w, 30)
	reqs[0].Deadline = time.Now().Add(time.Minute)
	out, expired, err := e.NewStreamBatch(false).Run(ctx, reqs)
	if err != context.Canceled || out != nil || expired != nil {
		t.Fatalf("cancelled Run returned %v, %v, %v; want nil, nil, context.Canceled", out, expired, err)
	}
	if st := e.CacheStats(); st.Builds != 0 {
		t.Fatalf("cancelled batch still built %d trees", st.Builds)
	}
}

// claimCtx cancels itself inside its limit-th Err call and counts the
// calls. The fan-out asks Err once per group it is about to claim (and a
// tree wait only after Done fires), so limit places the cancellation
// mid-window and the count shows whether anything claimed afterwards.
type claimCtx struct {
	context.Context
	cancel context.CancelFunc
	limit  int32
	calls  atomic.Int32
}

func (c *claimCtx) Err() error {
	if c.calls.Add(1) == c.limit {
		c.cancel()
	}
	return c.Context.Err()
}

// TestStreamBatchFanOutCancelled cancels a window of cold trees while four
// goroutines are claiming its groups: Run must report ctx.Err() with nil
// slices, having built only some of the trees, and every helper must be
// gone when it returns — none may ask for another group afterwards.
func TestStreamBatchFanOutCancelled(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	w := buildWorld(t, 85)
	e := New(w.a, INanoOptions())
	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &claimCtx{Context: inner, cancel: cancel, limit: 8}
	sb := e.NewStreamBatch(false)
	out, expired, err := sb.Run(ctx, randomReqs(rand.New(rand.NewSource(2)), w, 256))
	calls := ctx.calls.Load()
	if err != context.Canceled || out != nil || expired != nil {
		t.Fatalf("cancelled Run returned %v, %v, %v; want nil, nil, context.Canceled", out, expired, err)
	}
	if st := e.CacheStats(); st.Builds == 0 || st.Builds >= uint64(len(sb.groups)) {
		t.Fatalf("%d trees built for %d groups: the cancellation did not land mid-window", st.Builds, len(sb.groups))
	}
	sb.helpers.Wait() // a straggler, if Run left one, finishes its group and asks again
	if late := ctx.calls.Load() - calls; late != 0 {
		t.Fatalf("%d claims after Run returned: it did not wait for its helpers", late)
	}
}

// TestStreamBatchSharesTrees checks a batch costs one tree per distinct
// endpoint, not one per leg — N pairs from one source to K distinct
// destinations need at most K+1 Dijkstra runs — and that the engine's
// cache carries those trees to the next window and to another runner.
func TestStreamBatchSharesTrees(t *testing.T) {
	w := buildWorld(t, 84)
	e := New(w.a, INanoOptions())
	src := w.vps[0]
	const k = 5
	reqs := make([]PairReq, 0, 40)
	for i := 0; i < 40; i++ {
		reqs = append(reqs, PairReq{Src: src, Dst: w.targets[i%k]})
	}
	sb := e.NewStreamBatch(false)
	if _, _, err := sb.Run(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	st := e.CacheStats()
	if st.Builds > k+1 {
		t.Fatalf("batch of %d pairs over %d destinations built %d trees, want <= %d", len(reqs), k, st.Builds, k+1)
	}
	for _, next := range []*StreamBatch{sb, e.NewStreamBatch(true)} {
		if _, _, err := next.Run(context.Background(), reqs[:16]); err != nil {
			t.Fatal(err)
		}
	}
	if st2 := e.CacheStats(); st2.Builds != st.Builds {
		t.Fatalf("warm windows built %d new trees, want 0", st2.Builds-st.Builds)
	}
}

// TestConcurrentBatchAndSingleQueries races batches, Query, and
// PredictForward over one engine; run under -race this is the engine-level
// concurrency stress.
func TestConcurrentBatchAndSingleQueries(t *testing.T) {
	w := buildWorld(t, 85)
	opts := INanoOptions()
	opts.TreeCacheSize = 16 // small cache of two shards forces eviction churn during the race
	e := New(w.a, opts)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			sb := e.NewStreamBatch(g%2 == 0)
			for i := 0; i < 15; i++ {
				switch g % 3 {
				case 0:
					if _, _, err := sb.Run(context.Background(), randomReqs(rng, w, 12)); err != nil {
						t.Error(err)
						return
					}
				case 1:
					e.Query(w.vps[(g+i)%len(w.vps)], w.targets[(g*13+i*7)%len(w.targets)])
				default:
					e.PredictForward(w.vps[(g+i)%len(w.vps)], w.targets[(g*5+i*3)%len(w.targets)])
				}
			}
		}(g)
	}
	wg.Wait()
}

// poisonBuilder's trees have failed before anyone asks: whoever does
// re-panics.
type poisonBuilder struct{ *Engine }

func (b poisonBuilder) newTree(k uint64) *tree {
	t := b.Engine.newTree(k)
	t.panicked = "poisoned tree"
	return t
}

func (poisonBuilder) extend(*tree, []int32, int) {}

// TestStreamBatchPanicReachesCaller: when every tree of a window panics
// whoever asks for it, Run panics on the caller's goroutine — on one
// processor from the serial loop, on more from whichever goroutine of the
// fan-out asked — and leaves no helper behind. CI runs it at -cpu 1,4.
func TestStreamBatchPanicReachesCaller(t *testing.T) {
	w := buildWorld(t, 86)
	e := New(w.a, INanoOptions())
	reqs := randomReqs(rand.New(rand.NewSource(3)), w, 256)
	for _, rq := range reqs {
		if d := e.resolve(rq.Dst); d.ok {
			e.trees.lookup(treeKey(d.cl, d.as), poisonBuilder{e})
		}
	}
	sb := e.NewStreamBatch(true)
	base := runtime.NumGoroutine()
	var got any
	func() {
		defer func() { got = recover() }()
		sb.Run(context.Background(), reqs)
	}()
	if got != "poisoned tree" {
		t.Fatalf("Run's caller recovered %v, want the tree's panic", got)
	}
	if len(sb.groups) < 4 || sb.panicked.Load() != nil {
		t.Fatalf("%d groups, panic %v kept: want a window that fans out and nothing held over", len(sb.groups), sb.panicked.Load())
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the panic, %d before", runtime.NumGoroutine(), base)
		}
	}
}

// warmWindow is the 64-pair window of the allocation gate and benchmark.
func warmWindow(w *world) []PairReq {
	reqs := make([]PairReq, 0, 64)
	for i := 0; i < 64; i++ {
		reqs = append(reqs, PairReq{
			Src: w.vps[i%len(w.vps)],
			Dst: w.targets[(i*7)%len(w.targets)],
		})
	}
	return reqs
}

// TestStreamBatchZeroAlloc is the allocation gate for the streamed batch
// path, the window-level sibling of TestWarmQueryZeroAlloc: once a
// window's trees are cached and the runner's buffers have grown, a whole
// Run — endpoint resolution, grouping, prediction, composition — must not
// allocate. AllocsPerRun measures on one processor, so this gates the
// serial branch of runGroups only; TestStreamBatchFanOutAllocBudget has the
// other. CI runs this in the bench job.
func TestStreamBatchZeroAlloc(t *testing.T) {
	w := buildWorld(t, 61)
	e := New(w.a, INanoOptions())
	sb := e.NewStreamBatch(true)
	reqs := warmWindow(w)
	ctx := context.Background()
	if _, _, err := sb.Run(ctx, reqs); err != nil { // warm trees + buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := sb.Run(ctx, reqs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm StreamBatch.Run allocates %v times per window, want 0", allocs)
	}
}

// TestStreamBatchFanOutAllocBudget gates the branch the gate above cannot
// reach — testing.AllocsPerRun pins one processor, and one processor never
// fans out. On four, a warm full-size window may allocate what starting
// its three helpers costs (a closure each; the budget allows two objects)
// and nothing per group, per pair or per leg; its answers are Query's.
// CI runs this in the bench job.
func TestStreamBatchFanOutAllocBudget(t *testing.T) {
	const procs, windows, reps = 4, 50, 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	w := buildWorld(t, 61)
	e := New(w.a, INanoOptions())
	sb := e.NewStreamBatch(true)
	reqs := randomReqs(rand.New(rand.NewSource(7)), w, DefaultStreamWindow)
	ctx := context.Background()
	run := func() []PathInfo {
		got, _, err := sb.Run(ctx, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	got := run() // warm trees, buffers, and the runtime's pool of idle goroutines
	// Mallocs counts the whole process — the runtime's own g structs, race
	// and coverage bookkeeping, GC workers — so the gate reads the quietest
	// of a few repetitions: what Run allocates is in every one of them.
	perWindow := math.Inf(1)
	for rep := 0; rep < reps; rep++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < windows; i++ {
			got = run()
		}
		runtime.ReadMemStats(&after)
		perWindow = min(perWindow, float64(after.Mallocs-before.Mallocs)/windows)
	}
	if len(sb.groups) < procs {
		t.Fatalf("window has %d groups, too few to fan out over %d", len(sb.groups), procs)
	}
	if perWindow > 2*(procs-1) {
		t.Fatalf("warm fanned-out window allocates %.1f objects, want <= %d (2 per helper)", perWindow, 2*(procs-1))
	}
	for i, rq := range reqs {
		want := e.Query(rq.Src, rq.Dst)
		want.Fwd.ASPath, want.Rev.ASPath = nil, nil
		if !samePathInfo(got[i], want) {
			t.Fatalf("pair %d (%v->%v):\nRun   %+v\nQuery %+v", i, rq.Src, rq.Dst, got[i], want)
		}
	}
}

// BenchmarkStreamBatch_Warm is the steady-state streamed serving loop:
// one reusable runner, repeated 64-pair windows over cached trees.
// pairs/s = 64 * ops/s.
func BenchmarkStreamBatch_Warm(b *testing.B) {
	w := buildWorld(b, 61)
	e := New(w.a, INanoOptions())
	sb := e.NewStreamBatch(true)
	reqs := warmWindow(w)
	ctx := context.Background()
	if _, _, err := sb.Run(ctx, reqs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sb.Run(ctx, reqs); err != nil {
			b.Fatal(err)
		}
	}
}
