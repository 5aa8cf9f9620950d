package core

import (
	"context"
	"runtime"
	"sync"
	"time"

	"inano/internal/cluster"
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
// pairs amortize the grouping and worker fan-out while keeping per-stream
// memory a few tens of kilobytes regardless of stream length.
const DefaultStreamWindow = 1024

// batchGroup collects the batch legs that share one prediction tree.
type batchGroup struct {
	dstCl  cluster.ClusterID
	origin netsim.ASN
	idxs   []int
}

// StreamBatch is the batch runner: Run answers one window of pair
// requests, each pair exactly as Engine.Query would. For streamed serving
// keep one per NDJSON stream and call Run once per flush window: every
// per-window allocation (the doubled leg slice, the destination-grouping
// map, the group list, the result slices) lives in buffers that survive
// across windows, so a long-lived stream's steady state performs zero heap
// allocations per window once its trees are warm and its buffers have
// grown to the window size (CI-gated by TestStreamBatchZeroAlloc). For a
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

	// Per-window state, reused across Run calls.
	reqs    []PairReq          // current window (caller-owned, aliased during Run)
	dbl     [][2]netsim.Prefix // doubled legs: even = forward, odd = reverse
	legExp  []bool             // per-leg deadline expiry
	out     []PathInfo         // composed answers, aligned with reqs
	expired []bool             // per-pair expiry, aligned with reqs
	byKey   map[uint64]int32   // treeKey -> index into groups
	groups  []batchGroup       // the window's groups
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
// Pairs sharing a prediction tree are grouped; a group's tree build is
// bounded by the latest deadline among its members (any member without
// one lifts the bound), so one hopeless deadline cannot starve patient
// pairs of the same destination, and an expired build leaves the other
// groups' answers intact. Distinct trees fan across up to GOMAXPROCS
// workers. Cancellation of ctx itself aborts the whole window with
// ctx.Err() and nil slices; trees already built stay cached, so a retry
// resumes cheaply. Both returned slices are reused by the next Run call.
//
//inano:zeroalloc
func (b *StreamBatch) Run(ctx context.Context, reqs []PairReq) ([]PathInfo, []bool, error) {
	n := len(reqs)
	b.reqs = reqs
	if cap(b.dbl) < 2*n {
		//inano:alloc-ok amortized growth, capacity-guarded
		b.dbl = make([][2]netsim.Prefix, 2*n)
	} else {
		b.dbl = b.dbl[:2*n]
	}
	for i, rq := range reqs {
		b.dbl[2*i] = [2]netsim.Prefix{rq.Src, rq.Dst}
		b.dbl[2*i+1] = [2]netsim.Prefix{rq.Dst, rq.Src}
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

// group buckets the doubled legs by destination tree, reusing the map,
// the group backing store, and each group's idxs capacity from previous
// windows. Legs whose destination prefix is unknown stay ungrouped and
// keep the zero (not-found) prediction.
func (b *StreamBatch) group() {
	clear(b.byKey)
	b.groups = b.groups[:0]
	for i, pr := range b.dbl {
		dstCl, ok := b.e.f.ClusterOf(pr[1])
		if !ok {
			continue
		}
		origin := b.e.f.OriginAS(pr[1])
		k := treeKey(dstCl, origin)
		gi, seen := b.byKey[k]
		if !seen {
			gi = int32(len(b.groups))
			if cap(b.groups) > len(b.groups) {
				b.groups = b.groups[:gi+1]
				g := &b.groups[gi]
				g.dstCl, g.origin = dstCl, origin
				g.idxs = g.idxs[:0]
			} else {
				b.groups = append(b.groups, batchGroup{dstCl: dstCl, origin: origin})
			}
			b.byKey[k] = gi
		}
		g := &b.groups[gi]
		g.idxs = append(g.idxs, i)
	}
}

// runGroups answers every group of the window on a pool of up to
// GOMAXPROCS workers, stopping early (without draining) once ctx is
// cancelled.
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
		// joining an in-flight tree build), leaving zero-value results;
		// report it like the parallel path does.
		return ctx.Err()
	}
	ch := make(chan *batchGroup)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for g := range ch {
				if ctx.Err() != nil {
					continue // cancelled: drain without working
				}
				b.runGroup(ctx, g)
			}
		}()
	}
	for i := range b.groups {
		if ctx.Err() != nil {
			break
		}
		ch <- &b.groups[i]
	}
	close(ch)
	wg.Wait()
	return ctx.Err()
}

// runGroup answers one destination group's legs in place, possibly on a
// worker goroutine (groups are disjoint, and even/odd legs of one pair
// write disjoint PathInfo fields, so concurrent groups never race). The
// tree build runs under the latest member deadline, and members whose own
// deadline has passed when the tree is ready expire individually.
func (b *StreamBatch) runGroup(ctx context.Context, g *batchGroup) {
	e := b.e
	var groupDl time.Time
	bounded := true
	for _, i := range g.idxs {
		dl := b.reqs[i/2].Deadline
		if dl.IsZero() {
			bounded = false
			break
		}
		if dl.After(groupDl) {
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
	t, err := e.treeFor(ctx, g.dstCl, g.origin)
	if err != nil {
		for _, i := range g.idxs {
			b.legExp[i] = true
		}
		return
	}
	now := time.Now()
	for _, i := range g.idxs {
		if dl := b.reqs[i/2].Deadline; !dl.IsZero() && now.After(dl) {
			b.legExp[i] = true
			continue
		}
		src, dst := b.dbl[i][0], b.dbl[i][1]
		srcCl, ok := e.f.ClusterOf(src)
		if !ok {
			continue
		}
		p := b.legAt(i)
		e.pathFromInto(t, srcCl, p)
		if !p.Found {
			continue
		}
		p.DstCluster = g.dstCl
		if !b.noASPaths {
			p.ASPath = e.asPathInto(p.ASPath, p.Clusters, e.f.OriginAS(src), e.f.OriginAS(dst))
		}
	}
}

// legAt maps a doubled-leg index to its in-place Prediction: even legs
// are the pair's forward leg, odd its reverse.
func (b *StreamBatch) legAt(i int) *Prediction {
	if i%2 == 0 {
		return &b.out[i/2].Fwd
	}
	return &b.out[i/2].Rev
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
