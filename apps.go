package inano

import (
	"cmp"
	"context"
	"slices"
	"sort"

	"inano/internal/tcpmodel"
	"inano/internal/voip"
)

// The application helpers below are built on the batch query path: each
// call assembles its full set of (src, dst) legs and issues one QueryReqs,
// so predictions sharing a destination tree are computed once and distinct
// trees fan across workers, instead of running one Dijkstra per sequential
// Query.

// Ranked is one candidate as Snapshot.Rank scored it.
type Ranked struct {
	// Index is the candidate's position in the list Rank was given.
	Index int
	Dst   Prefix
	// Found is false when the atlas predicts no path to the candidate; the
	// numbers below are then zero.
	Found           bool
	RTTMS, LossRate float64
	// TransferMS is the predicted time to download sizeBytes from the
	// candidate; zero when sizeBytes is not positive.
	TransferMS float64
}

// Rank scores every candidate from src in one batch and returns them best
// first. With sizeBytes > 0 the score is the predicted download time of
// that many bytes (PFTK TCP model over predicted latency and loss, §7.1:
// short transfers are latency-dominated, long ones loss-sensitive), and
// equal times go to the lower prefix. Otherwise it is the predicted RTT
// ("which peers are closest", Fig. 7), and equal RTTs keep input order.
// Candidates with no prediction come last, in input order. This is the one
// ranking rule: a CDN client's replica pick is its first Found entry, and
// inanod's /v1/rank reads it too.
func (s Snapshot) Rank(ctx context.Context, src Prefix, dsts []Prefix, sizeBytes int) ([]Ranked, error) {
	reqs := make([]PairReq, len(dsts))
	for i, d := range dsts {
		reqs[i] = PairReq{Src: src, Dst: d}
	}
	infos, _, err := s.QueryReqs(ctx, reqs)
	if err != nil {
		return nil, err
	}
	params := tcpmodel.DefaultParams()
	out := make([]Ranked, len(dsts))
	for i, info := range infos {
		out[i] = Ranked{Index: i, Dst: dsts[i], Found: info.Found}
		if info.Found {
			out[i].RTTMS, out[i].LossRate = info.RTTMS, info.LossRate
			out[i].TransferMS = tcpmodel.TransferTimeMS(sizeBytes, info.RTTMS, info.LossRate, params)
		}
	}
	slices.SortStableFunc(out, func(a, b Ranked) int {
		switch {
		case a.Found != b.Found:
			if a.Found {
				return -1
			}
			return 1
		case !a.Found:
			return 0
		case sizeBytes > 0:
			return cmp.Or(cmp.Compare(a.TransferMS, b.TransferMS), cmp.Compare(a.Dst, b.Dst))
		}
		return cmp.Compare(a.RTTMS, b.RTTMS)
	})
	return out, nil
}

// relayLegs predicts both legs (src->relay, relay->dst) for every usable
// relay in one batch; the src->relay legs share src's reverse tree and
// every relay->dst leg shares dst's forward tree. Relays equal to an
// endpoint cannot carry the call and are filtered out before querying;
// kept lists the relays actually scored, with legs[2*i] and legs[2*i+1]
// holding kept[i]'s legs.
func (s Snapshot) relayLegs(ctx context.Context, src, dst Prefix, relays []Prefix) (kept []Prefix, legs []PathInfo, err error) {
	kept = make([]Prefix, 0, len(relays))
	reqs := make([]PairReq, 0, 2*len(relays))
	for _, r := range relays {
		if r == src || r == dst {
			continue
		}
		kept = append(kept, r)
		reqs = append(reqs, PairReq{Src: src, Dst: r}, PairReq{Src: r, Dst: dst})
	}
	legs, _, err = s.QueryReqs(ctx, reqs)
	return kept, legs, err
}

// RelayChoice is the outcome of relay selection: the chosen relay plus
// its predicted end-to-end performance through both legs — what a serving
// daemon reports back to the caller placing the call.
type RelayChoice struct {
	Relay Prefix
	// RTTMS is the predicted end-to-end round-trip latency through the
	// relay (both legs).
	RTTMS float64
	// LossRate is the predicted end-to-end loss rate through the relay.
	LossRate float64
	// MOS is the predicted mean opinion score of a call through the relay.
	MOS float64
}

// BestRelay picks a relay for a VoIP call from src to dst with the paper's
// §7.2 strategy: take the k relays (10 when k <= 0) minimizing predicted
// end-to-end loss through the relay, then among those the one minimizing
// end-to-end latency. The choice comes annotated with its predicted
// end-to-end performance. ok is false when no relay has predictions for
// both legs. ctx bounds call-setup latency: when it expires the batch
// aborts and ctx.Err() is returned.
func (s Snapshot) BestRelay(ctx context.Context, src, dst Prefix, relays []Prefix, k int) (RelayChoice, bool, error) {
	if k <= 0 {
		k = 10
	}
	kept, legs, err := s.relayLegs(ctx, src, dst, relays)
	if err != nil {
		return RelayChoice{}, false, err
	}
	type cand struct {
		relay      Prefix
		loss       float64
		rtt        float64
		leg1, leg2 PathInfo
	}
	var cands []cand
	for i, r := range kept {
		leg1, leg2 := legs[2*i], legs[2*i+1]
		if !leg1.Found || !leg2.Found {
			continue
		}
		cands = append(cands, cand{
			relay: r,
			loss:  1 - (1-leg1.LossRate)*(1-leg2.LossRate),
			rtt:   leg1.RTTMS + leg2.RTTMS,
			leg1:  leg1,
			leg2:  leg2,
		})
	}
	if len(cands) == 0 {
		return RelayChoice{}, false, nil
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].loss != cands[j].loss {
			return cands[i].loss < cands[j].loss
		}
		return cands[i].relay < cands[j].relay
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	best := cands[0]
	for _, cd := range cands[1:] {
		if cd.rtt < best.rtt || (cd.rtt == best.rtt && cd.relay < best.relay) {
			best = cd
		}
	}
	return RelayChoice{
		Relay:    best.relay,
		RTTMS:    best.rtt,
		LossRate: best.loss,
		MOS:      voip.RelayScore(best.leg1.RTTMS, best.leg1.LossRate, best.leg2.RTTMS, best.leg2.LossRate),
	}, true, nil
}

// RankDetours orders candidate detour nodes for recovering connectivity
// from src to dst, maximizing path disjointness (§7.3): the (k+1)-th detour
// minimizes first the PoP clusters and then the ASes shared with the direct
// path and with the k previously chosen detours. ctx bounds the one batch
// that predicts the paths: when it ends first, ctx.Err() is returned.
func (s Snapshot) RankDetours(ctx context.Context, src, dst Prefix, candidates []Prefix) ([]Prefix, error) {
	// One batch predicts the direct path plus both legs of every detour:
	// all src->X legs share src's plane, all X->dst legs share dst's tree.
	// Only the forward direction of each answer is read.
	reqs := make([]PairReq, 0, 2*len(candidates)+1)
	reqs = append(reqs, PairReq{Src: src, Dst: dst})
	kept := make([]Prefix, 0, len(candidates))
	for _, d := range candidates {
		if d == src || d == dst {
			continue
		}
		kept = append(kept, d)
		reqs = append(reqs, PairReq{Src: src, Dst: d}, PairReq{Src: d, Dst: dst})
	}
	infos, _, err := s.QueryReqs(ctx, reqs)
	if err != nil {
		return nil, err
	}
	direct := infos[0].Fwd

	usedClusters := make(map[int32]int)
	usedASes := make(map[ASN]int)
	markPath := func(p Prediction) {
		for _, cl := range p.Clusters {
			usedClusters[int32(cl)]++
		}
		for _, a := range p.ASPath {
			usedASes[a]++
		}
	}
	if direct.Found {
		markPath(direct)
	}
	type detourPath struct {
		p      Prefix
		via    Prediction // src -> detour
		onward Prediction // detour -> dst
		ok     bool
	}
	paths := make([]detourPath, len(kept))
	for i, d := range kept {
		via, onward := infos[1+2*i].Fwd, infos[2+2*i].Fwd
		paths[i] = detourPath{p: d, via: via, onward: onward, ok: via.Found && onward.Found}
	}
	var out []Prefix
	remaining := paths
	for len(remaining) > 0 {
		bestIdx, bestPoP, bestAS := -1, 1<<30, 1<<30
		for i, dp := range remaining {
			pop, as := 1<<29, 1<<29 // unpredictable detours rank behind predictable ones
			if dp.ok {
				pop, as = 0, 0
				count := func(p Prediction, skipEnds int) {
					cls := p.Clusters
					asp := p.ASPath
					// The endpoints' own attachment clusters/ASes are
					// shared by construction; they carry no signal and
					// would swamp the disjointness comparison.
					if len(cls) > 2*skipEnds {
						cls = cls[skipEnds : len(cls)-skipEnds]
					}
					if len(asp) > 2*skipEnds {
						asp = asp[skipEnds : len(asp)-skipEnds]
					}
					for _, cl := range cls {
						if usedClusters[int32(cl)] > 0 {
							pop++
						}
					}
					for _, a := range asp {
						if usedASes[a] > 0 {
							as++
						}
					}
				}
				count(dp.via, 1)
				count(dp.onward, 1)
			}
			if pop < bestPoP || (pop == bestPoP && as < bestAS) ||
				(pop == bestPoP && as == bestAS && bestIdx >= 0 && dp.p < remaining[bestIdx].p) {
				bestIdx, bestPoP, bestAS = i, pop, as
			}
		}
		chosen := remaining[bestIdx]
		out = append(out, chosen.p)
		if chosen.ok {
			markPath(chosen.via)
			markPath(chosen.onward)
		}
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	return out, nil
}
