package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"inano/internal/netsim"
)

// Batch prediction. The backtracking Dijkstra computes one tree per
// destination that answers queries from *every* source, so a batch is
// grouped by destination tree and fanned across a bounded worker pool:
// each distinct destination costs one tree (built or cached), and all
// sources sharing it are answered by cheap path extraction. Forward legs
// group by destination and reverse legs by source, so one source querying
// N destinations costs N+1 trees rather than 2N Dijkstra runs. This is the
// natural shape of CDN replica selection ("rank these N replicas for me")
// and VoIP relay ranking ("score both legs through these N relays").
// StreamBatch.Run is the one executor of it.

// PairReq is one entry of a batch: a (src, dst) prefix pair plus an
// optional absolute deadline (zero = none).
type PairReq struct {
	// Src and Dst are the query pair's endpoint /24 prefixes.
	Src, Dst netsim.Prefix
	// Deadline bounds this pair only. A pair whose deadline passes before
	// its prediction trees are available is reported expired; the rest of
	// the batch is unaffected.
	Deadline time.Time
}

// DefaultStreamWindow is the number of pairs a streamed caller (the
// server's /v1/batch) hands Run per flush when it has no preference. 1024
// pairs amortize the endpoint resolution, the grouping and the helper
// goroutines' start while keeping per-stream memory a few tens of
// kilobytes regardless of stream length.
const DefaultStreamWindow = 1024

// batchGroup collects the batch legs that share one prediction tree: the
// tree of dst, the destination of every leg in idxs; need are their askNodes.
type batchGroup struct {
	dst  endpoint
	idxs []int
	need []int32
}

// StreamBatch is the batch runner: Run answers one window of pair
// requests, each pair exactly as Engine.Query would. For streamed serving
// keep one per NDJSON stream and call Run once per flush window: every
// per-window allocation (the resolved endpoints, the destination-grouping
// map, the group list, the result slices) lives in buffers that survive
// across windows, so a long-lived stream's steady state performs zero heap
// allocations per window once its trees are warm and its buffers have
// grown to the window size — on one processor; with more, each helper
// goroutine of the fan-out costs its closure (CI-gated by
// TestStreamBatchZeroAlloc and TestStreamBatchFanOutAllocBudget). For a
// one-shot batch, Run once on a fresh runner and drop it; the returned
// slices are then the caller's to keep.
//
// A StreamBatch is bound to one Engine snapshot and is not safe for
// concurrent use; the slices returned by Run are owned by the StreamBatch
// and valid only until the next Run call.
type StreamBatch struct {
	e *Engine

	// noASPaths skips the AS-level path derivation on every leg. The
	// server's batch endpoint never serializes AS paths, so the work (and
	// the per-leg ASPath buffer growth) is pure waste there.
	noASPaths bool

	// Per-window state, reused across Run calls. Request i's source is
	// eps[2i] and its destination eps[2i+1], so leg j — even forward, odd
	// reverse — runs from eps[j] to eps[j^1].
	reqs      []PairReq           // current window (caller-owned, aliased during Run)
	eps       []endpoint          // every request endpoint, resolved once
	deadlines bool                // some request of the window carries a deadline
	legExp    []bool              // per-leg deadline expiry
	out       []PathInfo          // composed answers, aligned with reqs
	expired   []bool              // per-pair expiry, aligned with reqs
	byKey     map[uint64]int32    // treeKey -> index into groups
	groups    []batchGroup        // the window's groups
	claimed   atomic.Int32        // groups handed out so far (fan-out only)
	helpers   sync.WaitGroup      // the fan-out's helper goroutines
	panicked  atomic.Pointer[any] // the first panic of a fan-out goroutine
}

// NewStreamBatch returns a reusable windowed batch runner bound to this
// engine. noASPaths skips AS-path derivation on every answer (Fwd.ASPath
// and Rev.ASPath stay empty) — the shape the NDJSON batch endpoint wants,
// since it never serializes them.
func (e *Engine) NewStreamBatch(noASPaths bool) *StreamBatch {
	return &StreamBatch{
		e:         e,
		noASPaths: noASPaths,
		byKey:     make(map[uint64]int32),
	}
}

// Run answers one window of pair requests. Results align with reqs:
// out[i] equals Engine.Query(reqs[i].Src, reqs[i].Dst) (zero-valued when
// not found; AS paths empty under noASPaths), and expired[i] reports that
// pair i's deadline passed before its answer was ready — its PathInfo is
// then the zero value, partial results instead of an aborted window.
// Pairs sharing a prediction tree are grouped; a group's tree search is
// bounded by the latest deadline among its members (any member without
// one lifts the bound), so one hopeless deadline cannot starve patient
// pairs of the same destination, and an expired build leaves the other
// groups' answers intact. Distinct trees fan across up to GOMAXPROCS
// goroutines, the caller's among them. Cancellation of ctx itself aborts
// the whole window with ctx.Err() and nil slices; trees already searched
// stay cached, so a retry resumes cheaply. Both returned slices are reused by
// the next Run call.
//
//inano:zeroalloc
func (b *StreamBatch) Run(ctx context.Context, reqs []PairReq) ([]PathInfo, []bool, error) {
	n := len(reqs)
	b.reqs = reqs
	if cap(b.eps) < 2*n {
		//inano:alloc-ok amortized growth, capacity-guarded
		b.eps = make([]endpoint, 2*n)
	} else {
		b.eps = b.eps[:2*n]
	}
	b.deadlines = false
	for i, rq := range reqs {
		b.eps[2*i] = b.e.resolve(rq.Src)
		b.eps[2*i+1] = b.e.resolve(rq.Dst)
		if !rq.Deadline.IsZero() {
			b.deadlines = true
		}
	}
	if cap(b.legExp) < 2*n {
		//inano:alloc-ok amortized growth, capacity-guarded
		b.legExp = make([]bool, 2*n)
	} else {
		b.legExp = b.legExp[:2*n]
		clear(b.legExp)
	}
	if cap(b.expired) < n {
		//inano:alloc-ok amortized growth, capacity-guarded
		b.expired = make([]bool, n)
	} else {
		b.expired = b.expired[:n]
		clear(b.expired)
	}
	// Grow out by copying so reused entries keep their Clusters/ASPath
	// slice capacities — that reuse is the whole point of the runner.
	if cap(b.out) < n {
		//inano:alloc-ok amortized growth, entries keep slice capacity
		grown := make([]PathInfo, n)
		copy(grown, b.out)
		b.out = grown
	} else {
		b.out = b.out[:n]
	}
	for i := range b.out {
		b.out[i].resetKeepCap()
	}
	b.group()
	err := b.runGroups(ctx)
	b.reqs = nil
	if err != nil {
		return nil, nil, err
	}
	for i := range b.out {
		if b.legExp[2*i] || b.legExp[2*i+1] {
			b.expired[i] = true
			b.out[i].resetKeepCap()
			continue
		}
		b.e.finishQuery(&b.out[i], reqs[i].Dst)
	}
	return b.out, b.expired, nil
}

// group buckets the window's legs by destination tree, reusing the map,
// the group backing store, and each group's idxs and need capacity from
// previous windows. Legs whose destination prefix is unknown stay ungrouped and
// keep the zero (not-found) prediction.
func (b *StreamBatch) group() {
	clear(b.byKey)
	b.groups = b.groups[:0]
	for i := range b.eps {
		dst := b.eps[i^1]
		if !dst.ok {
			continue
		}
		k := treeKey(dst.cl, dst.as)
		gi, seen := b.byKey[k]
		if !seen {
			gi = int32(len(b.groups))
			if cap(b.groups) > len(b.groups) {
				b.groups = b.groups[:gi+1]
				g := &b.groups[gi]
				g.dst, g.idxs, g.need = dst, g.idxs[:0], g.need[:0]
			} else {
				b.groups = append(b.groups, batchGroup{dst: dst})
			}
			b.byKey[k] = gi
		}
		g := &b.groups[gi]
		g.idxs = append(g.idxs, i)
		if src := b.eps[i]; src.ok {
			g.need = append(g.need, b.e.askNode(src.cl))
		}
	}
}

// runGroups answers every group of the window on up to GOMAXPROCS
// goroutines — the caller's and helpers that live for this window only —
// each claiming the next unanswered group from one counter until none is
// left or ctx is cancelled. No helper outlives the call nor keeps its panic.
func (b *StreamBatch) runGroups(ctx context.Context) error {
	workers := min(runtime.GOMAXPROCS(0), len(b.groups))
	if workers <= 1 {
		for i := range b.groups {
			if err := ctx.Err(); err != nil {
				return err
			}
			b.runGroup(ctx, &b.groups[i])
		}
		// ctx may have expired during the last group's work (e.g. while
		// waiting for a tree another caller is searching), leaving
		// zero-value results; report it like the parallel path does.
		return ctx.Err()
	}
	b.claimed.Store(0)
	b.helpers.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer b.helpers.Done()
			b.claimGroups(ctx)
		}()
	}
	b.claimGroups(ctx)
	b.helpers.Wait()
	if p := b.panicked.Swap(nil); p != nil {
		panic(*p)
	}
	return ctx.Err()
}

// claimGroups is one goroutine's share of the fan-out.
func (b *StreamBatch) claimGroups(ctx context.Context) {
	defer func() {
		if p := recover(); p != nil {
			v := p // escapes: declared here, it costs nothing without a panic
			b.panicked.CompareAndSwap(nil, &v)
		}
	}()
	for ctx.Err() == nil {
		i := int(b.claimed.Add(1)) - 1
		if i >= len(b.groups) {
			return
		}
		b.runGroup(ctx, &b.groups[i])
	}
}

// runGroup answers one destination group's legs in place, possibly on a
// helper goroutine (groups are disjoint, and even/odd legs of one pair
// write disjoint PathInfo fields, so concurrent groups never race). The
// tree is searched until every member's askNode settled, under the latest
// member deadline, and members whose own deadline has passed by then expire
// individually; a window without a deadline reads no clock.
func (b *StreamBatch) runGroup(ctx context.Context, g *batchGroup) {
	e := b.e
	var groupDl time.Time
	bounded := b.deadlines
	for k := 0; bounded && k < len(g.idxs); k++ {
		dl := b.reqs[g.idxs[k]/2].Deadline
		if dl.IsZero() {
			bounded = false
		} else if dl.After(groupDl) {
			groupDl = dl
		}
	}
	if bounded {
		if !groupDl.After(time.Now()) {
			for _, i := range g.idxs {
				b.legExp[i] = true
			}
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, groupDl)
		defer cancel()
	}
	t, err := e.trees.extend(ctx, e.trees.lookup(treeKey(g.dst.cl, g.dst.as), e), e, g.need, 0)
	if err != nil {
		for _, i := range g.idxs {
			b.legExp[i] = true
		}
		return
	}
	var now time.Time
	if b.deadlines {
		now = time.Now()
	}
	for _, i := range g.idxs {
		if dl := b.reqs[i/2].Deadline; !dl.IsZero() && now.After(dl) {
			b.legExp[i] = true
			continue
		}
		src := b.eps[i]
		if !src.ok {
			continue
		}
		p := &b.out[i/2].Fwd
		if i%2 == 1 {
			p = &b.out[i/2].Rev
		}
		e.legInto(p, t, src, g.dst, !b.noASPaths)
	}
}

// resetKeepCap clears info for reuse, keeping the capacity of both legs'
// path slices.
func (info *PathInfo) resetKeepCap() {
	info.Found = false
	info.RTTMS = 0
	info.LossRate = 0
	info.Fwd.reset()
	info.Rev.reset()
}
