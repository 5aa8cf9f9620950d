package core

import (
	"context"

	"inano/internal/cluster"
	"inano/internal/netsim"
)

// Prediction is a one-way predicted path with composed link annotations.
type Prediction struct {
	// Found reports whether a path to the destination was predicted.
	Found bool
	// DstCluster is the destination attachment cluster whose prediction
	// tree produced this path — the provenance key the measurement
	// feedback loop uses to attribute observed-vs-predicted error to a
	// destination. Valid only when Found.
	DstCluster cluster.ClusterID
	// Clusters is the predicted cluster-level path, source end first.
	Clusters []cluster.ClusterID
	// ASPath is the predicted AS-level path including the endpoint
	// prefixes' origin ASes.
	ASPath []netsim.ASN
	// LatencyMS is the sum of atlas link latencies along the path.
	LatencyMS float64
	// LossRate is the composed one-way loss rate of the path's links.
	LossRate float64
}

// reset clears p for reuse, keeping the capacity of its path slices so a
// caller-owned Prediction answers repeated queries without allocating.
func (p *Prediction) reset() {
	p.Found = false
	p.DstCluster = 0
	p.Clusters = p.Clusters[:0]
	p.ASPath = p.ASPath[:0]
	p.LatencyMS = 0
	p.LossRate = 0
}

// PathInfo is the answer to a bidirectional path query: forward and reverse
// predictions with end-to-end estimates (§3: "predicts the forward and
// reverse paths ... and composes the properties of the inter-cluster
// links").
type PathInfo struct {
	// Found reports whether both directions produced a prediction.
	Found bool
	// Fwd and Rev are the per-direction path predictions.
	Fwd, Rev Prediction
	// RTTMS is the predicted round-trip latency (forward + reverse).
	RTTMS float64
	// LossRate is the predicted round-trip loss rate.
	LossRate float64
}

// minServedLatencyMS floors a residually corrected latency: stacked
// negative corrections (each within the ±feedback.MaxAdjustMS codec bound)
// must never drive a served prediction to zero or below.
const minServedLatencyMS = 0.05

func treeKey(dst cluster.ClusterID, origin netsim.ASN) uint64 {
	return uint64(uint32(dst))<<32 | uint64(origin)
}

func splitTreeKey(k uint64) (cluster.ClusterID, netsim.ASN) {
	return cluster.ClusterID(uint32(k >> 32)), netsim.ASN(uint32(k))
}

// askNode is the node a leg from srcCl needs settled for pathFromInto's
// answer to be final: FROM_SRC, or TO_DST without Asymmetry.
func (e *Engine) askNode(srcCl cluster.ClusterID) int32 {
	if e.opts.Asymmetry {
		return e.nodeID(srcCl, planeFromSrc, stateUp)
	}
	return e.nodeID(srcCl, planeToDst, stateUp)
}

// endpoint is one end of a query resolved against the atlas: the prefix's
// attachment cluster and BGP origin AS. The zero value (ok false) is a
// prefix the atlas does not know.
type endpoint struct {
	cl cluster.ClusterID
	as netsim.ASN
	ok bool
}

// resolve looks a prefix up once; every leg it is an end of, in either
// direction, reads the result.
func (e *Engine) resolve(p netsim.Prefix) endpoint {
	cl, ok := e.f.ClusterOf(p)
	if !ok {
		return endpoint{}
	}
	return endpoint{cl: cl, as: e.f.OriginAS(p), ok: true}
}

// PredictForward predicts the one-way path from a host in src to a host in
// dst. Found is false when either prefix has no attachment cluster in the
// atlas or no policy-compliant path exists.
func (e *Engine) PredictForward(src, dst netsim.Prefix) Prediction {
	var p Prediction
	_ = e.predictInto(bgCtx, &p, e.resolve(src), e.resolve(dst)) // the background context never ends a wait
	e.adjustLatency(&p, dst)
	return p
}

// bgCtx hoists context.Background() out of the query hot path: building
// the Context interface value per call is an escape-analysis hit inside a
// //inano:zeroalloc function (found by inanovet's escape check), and the
// singleton is what every call produced anyway.
var bgCtx = context.Background()

// predictInto fills p with the residual-uncorrected prediction from s to
// d, searching d's tree until s's node is settled, reusing p's capacity.
// The only error is ctx's, ending a wait for another caller's search.
//
//inano:zeroalloc
func (e *Engine) predictInto(ctx context.Context, p *Prediction, s, d endpoint) error {
	p.reset()
	if !s.ok || !d.ok {
		return nil
	}
	t := e.trees.lookup(treeKey(d.cl, d.as), e)
	if node := e.askNode(s.cl); !t.done.Load() && !t.has(node) {
		var err error
		//inano:alloc-ok a search that runs allocates anyway
		if t, err = e.trees.extend(ctx, t, e, []int32{node}, 0); err != nil {
			return err
		}
	}
	e.legInto(p, t, s, d, true)
	return nil
}

// legInto reads the leg from s to d out of d's tree t, searched until s's
// askNode settled, into p, which must be reset: the one leg function of
// single queries and batch windows, and the allocation-free core of both.
// asPath false leaves p.ASPath empty.
//
//inano:zeroalloc
func (e *Engine) legInto(p *Prediction, t *tree, s, d endpoint, asPath bool) {
	e.pathFromInto(t, s.cl, p)
	if !p.Found {
		return
	}
	p.DstCluster = d.cl
	if asPath {
		p.ASPath = e.asPathInto(p.ASPath, p.Clusters, s.as, d.as)
	}
}

// adjustLatency applies the residual corrections for the prediction's
// destination prefix: the swarm-shipped aggregate (atlas.GlobalAdjustMS,
// folded by the build from everyone's uploaded observations) plus the
// client-local converging term (atlas.AdjustMS, this host's own probes).
// The two stack — the local term is learned against served predictions
// that already include the global one, so it converges on whatever
// residual remains. Applied exactly once per answer — on a standalone
// one-way prediction, or on the forward leg of a bidirectional query
// (see finishQuery) — and floored so a correction can never drive a
// latency to zero or below. A no-op for unfound predictions and for
// atlases without corrections.
func (e *Engine) adjustLatency(p *Prediction, dst netsim.Prefix) {
	if !p.Found {
		return
	}
	g, l, ok := e.f.Adjust(dst)
	if !ok {
		return
	}
	adj := float64(g) + float64(l)
	if adj == 0 {
		return
	}
	p.LatencyMS += adj
	if p.LatencyMS < minServedLatencyMS {
		p.LatencyMS = minServedLatencyMS
	}
}

// AttachmentCluster returns the atlas attachment cluster of a prefix: the
// cluster whose prediction tree answers queries toward it. The feedback
// loop keys its per-destination error aggregation on this, so corrective
// measurements and served predictions attribute error identically.
func (e *Engine) AttachmentCluster(p netsim.Prefix) (cluster.ClusterID, bool) {
	return e.f.ClusterOf(p)
}

// pathFromInto extracts the predicted path from a source cluster out of a
// prediction tree into a caller-owned Prediction, preferring the FROM_SRC
// plane and falling back to TO_DST-only (§4.3.1) once the search is done.
// A walk starts only from a settled node (else p stays empty), carries
// (cluster, plane, up/down) and reads one hop word a node: a link's word
// names its CSR edge, which gives latency and loss and — through edgeTo —
// the next cluster. p must be reset (or zero) except for slice capacity.
func (e *Engine) pathFromInto(t *tree, srcCl cluster.ClusterID, p *Prediction) {
	plane := planeFromSrc
	if !e.opts.Asymmetry || !t.has(e.nodeID(srcCl, planeFromSrc, stateUp)) {
		plane = planeToDst // FROM_SRC may settle yet unless the search is done
		if e.opts.Asymmetry && !t.done.Load() || !t.has(e.nodeID(srcCl, planeToDst, stateUp)) {
			return
		}
	}
	p.Found = true
	if p.Clusters == nil {
		// First use of this Prediction: size for a typical path up front
		// so the walk's appends don't regrow 1->2->4->8. Reused
		// Predictions keep whatever capacity they grew to.
		p.Clusters = make([]cluster.ClusterID, 0, 16)
	}
	p.Clusters = append(p.Clusters, srcCl)
	hop, lat, loss, edgeTo := t.hop, e.f.EdgeLat, e.f.EdgeLoss, e.edgeTo
	latency, deliver := 0.0, 1.0
	c, ud := srcCl, stateUp
	for left := e.numNodes(); ; left-- {
		h := hop[e.nodeID(c, plane, ud)]
		if h < 0 {
			break
		}
		if left == 0 {
			*p = Prediction{Clusters: p.Clusters[:0], ASPath: p.ASPath[:0]}
			return // defensive: malformed tree must not hang
		}
		switch h & 3 {
		case hopTurn:
			ud = stateDown
		case hopToDst:
			plane = planeToDst
		default: // a link, into the next cluster
			ei := h >> 2
			latency += float64(lat[ei])
			deliver *= 1 - float64(loss[ei])
			c, ud = edgeTo[ei], int(h&1)
			p.Clusters = append(p.Clusters, c)
		}
	}
	p.LatencyMS, p.LossRate = latency, 1-deliver
}

// asPathInto derives the AS-level path from a cluster path into out[:0]
// (which may be nil), bracketing it with the endpoint prefixes' origin ASes
// when the attachment clusters sit in a different AS (e.g. the stub's own
// routers never answered probes).
func (e *Engine) asPathInto(out []netsim.ASN, clusters []cluster.ClusterID, srcAS, dstAS netsim.ASN) []netsim.ASN {
	if out == nil {
		out = make([]netsim.ASN, 0, len(clusters)+2)
	}
	out = out[:0]
	if srcAS != 0 {
		out = append(out, srcAS)
	}
	for _, c := range clusters {
		a := e.f.ClusterAS[c]
		if a == 0 {
			continue
		}
		if n := len(out); n > 0 && out[n-1] == a {
			continue
		}
		out = append(out, a)
	}
	if dstAS != 0 && (len(out) == 0 || out[len(out)-1] != dstAS) {
		out = append(out, dstAS)
	}
	return out
}

// Query predicts both directions between two prefixes and composes
// end-to-end estimates. The destination's residual correction applies
// once, on the forward leg (see finishQuery); the reverse leg is the
// uncorrected prediction, so Rev may differ from a standalone
// PredictForward(dst, src) when src itself carries a correction.
func (e *Engine) Query(src, dst netsim.Prefix) PathInfo {
	var info PathInfo
	e.QueryInto(&info, src, dst)
	return info
}

// QueryInto is Query writing into a caller-owned PathInfo, reusing the
// capacity of its Clusters/ASPath slices across calls. After the trees for
// both directions are warm (cached), a QueryInto performs zero heap
// allocations — the serving loop's steady state. The previous contents of
// info are overwritten; its slices must not be aliased elsewhere.
//
//inano:zeroalloc
func (e *Engine) QueryInto(info *PathInfo, src, dst netsim.Prefix) {
	_ = e.QueryCtx(bgCtx, info, src, dst) // the background context never ends
}

// QueryCtx is QueryInto under a context: when ctx ends before the answer is
// complete — while a leg waits for a tree another caller is searching, or
// by the time both legs are read — it returns ctx's error, as
// StreamBatch.Run does for a window, and info holds no answer. A search
// this call extends itself runs until its answer is final and stays cached.
//
//inano:zeroalloc
func (e *Engine) QueryCtx(ctx context.Context, info *PathInfo, src, dst netsim.Prefix) error {
	s, d := e.resolve(src), e.resolve(dst)
	err := e.predictInto(ctx, &info.Fwd, s, d)
	if err == nil {
		err = e.predictInto(ctx, &info.Rev, d, s)
	}
	e.finishQuery(info, dst)
	if err == nil {
		err = ctx.Err()
	}
	return err
}

// finishQuery applies the forward-leg residual correction and composes the
// bidirectional estimates, resetting the top-level fields. The reverse leg
// stays uncorrected — its "destination" is the querying host, whose own
// AdjustMS entry (learned from some other pair's round trips) must not be
// double-counted into this query's RTT.
func (e *Engine) finishQuery(info *PathInfo, dst netsim.Prefix) {
	e.adjustLatency(&info.Fwd, dst)
	info.Found = false
	info.RTTMS = 0
	info.LossRate = 0
	if !info.Fwd.Found || !info.Rev.Found {
		return
	}
	info.Found = true
	info.RTTMS = info.Fwd.LatencyMS + info.Rev.LatencyMS
	info.LossRate = 1 - (1-info.Fwd.LossRate)*(1-info.Rev.LossRate)
}
