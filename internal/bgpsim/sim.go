// Package bgpsim computes ground-truth Internet routes over a netsim
// topology. It implements the "textbook plus exceptions" routing model the
// paper describes: valley-free export, customer<peer<provider local
// preference, shortest AS path, deterministic per-AS tie-break quirks (the
// policy detail iNano's preference inference must learn), hot-potato and
// late-exit PoP-level exit selection, per-prefix traffic-engineering
// deflections, and no-self-export upstreams (§4.3.4).
//
// Routes are a function of a simulated day: each day a small fraction of
// per-AS tie-break quirks and traffic-engineering choices re-roll and link
// loss rates drift, which drives the paper's stationarity experiments
// (Fig. 4, §6.2, Table 2 deltas).
package bgpsim

import (
	"math"
	"sync"

	"inano/internal/netsim"
)

// Churn rates, calibrated so that roughly half of PoP-level paths are
// identical across consecutive days, matching the stationarity the paper
// measures (Fig. 4).
const (
	// quirkChurnPerDay is the per-day probability that one AS re-rolls its
	// neighbor tie-break ordering.
	quirkChurnPerDay = 0.06
	// teFrac is the fraction of edge prefixes whose routes are deflected
	// by per-prefix traffic engineering on a given day.
	teFrac = 0.08
	// teChurnPerDay is the per-day probability that a prefix's TE decision
	// re-rolls.
	teChurnPerDay = 0.35
	// lossChurnPerDay is the per-day probability that a directed link's
	// loss rate re-rolls.
	lossChurnPerDay = 0.8
	// exitNoiseFrac scales the multiplicative noise applied to candidate
	// exit-link costs during PoP-level path expansion, modeling IGP weight
	// changes and intradomain load balancing that flip near-tie exit
	// choices without changing the AS path.
	exitNoiseFrac = 0.5
	// exitChurnPerDay is the per-day probability that one AS adjacency's
	// exit noise re-rolls.
	exitChurnPerDay = 0.65
)

// Sim is the routing simulator. It is safe for concurrent use; per-day route
// state is built lazily and cached.
type Sim struct {
	Top *netsim.Topology

	seed int64

	mu    sync.Mutex
	days  map[int]*Day
	intra *intraCache
	// rels[a-1][i] is Top.RelOf(a, Top.ASAdj[a-1][i]): route selection
	// reads an adjacency's relationship without a map probe.
	rels [][]netsim.Rel
}

// New creates a simulator over top.
func New(top *netsim.Topology) *Sim {
	s := &Sim{
		Top:   top,
		seed:  top.Cfg.Seed*0x9e3779b9 + 0x1234,
		days:  make(map[int]*Day),
		intra: &intraCache{top: top, byAS: make([]filled[*intraAS], len(top.ASes)), idx: make([]int32, len(top.PoPs))},
		rels:  make([][]netsim.Rel, len(top.ASAdj)),
	}
	for _, as := range top.ASes {
		for i, p := range as.PoPs {
			s.intra.idx[p] = int32(i)
		}
	}
	for i, nbs := range top.ASAdj {
		for _, y := range nbs {
			s.rels[i] = append(s.rels[i], top.RelOf(netsim.ASN(i+1), y))
		}
	}
	return s
}

// Day returns the routing view for simulated day d (d >= 0).
func (s *Sim) Day(d int) *Day {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.days[d]; ok {
		return v
	}
	v := &Day{sim: s, day: d, tables: make([]filled[*RouteTable], len(s.Top.ASes))}
	v.quirkSalt = make([]uint64, len(s.Top.ASes))
	for i := range v.quirkSalt {
		v.quirkSalt[i] = s.quirkSaltFor(netsim.ASN(i+1), d)
	}
	v.pairs = make(map[uint64]asPair, len(s.Top.Rels))
	for k := range s.Top.Rels {
		links := s.Top.InterLinks(netsim.ASN(k>>32), netsim.ASN(uint32(k)))
		v.pairs[k] = asPair{links: links, late: s.Top.LateExit[k], salt: s.exitSaltFor(k, d)}
	}
	s.days[d] = v
	return v
}

// quirkSaltFor chains per-day re-roll decisions: an AS's tie-break ordering
// on day d is determined by the most recent day at or before d on which it
// re-rolled (day 0 always counts as a roll).
func (s *Sim) quirkSaltFor(a netsim.ASN, day int) uint64 {
	last := 0
	for d := 1; d <= day; d++ {
		if hashFloat(mix(uint64(s.seed), 0x71, uint64(a), uint64(d))) < quirkChurnPerDay {
			last = d
		}
	}
	return mix(uint64(s.seed), 0x55, uint64(a), uint64(last))
}

// exitSaltFor chains per-day exit-noise re-rolls for one AS adjacency.
func (s *Sim) exitSaltFor(pairKey uint64, day int) uint64 {
	last := 0
	for d := 1; d <= day; d++ {
		if hashFloat(mix(uint64(s.seed), 0xee, pairKey, uint64(d))) < exitChurnPerDay {
			last = d
		}
	}
	return mix(uint64(s.seed), 0xef, pairKey, uint64(last))
}

// Loss rates churn on quarter-day boundaries so the 6/12/24-hour
// stationarity experiment (§6.2.2) has sub-day dynamics; the per-quarter
// churn probability compounds to lossChurnPerDay over four quarters.
const lossQuartersPerDay = 4

func (s *Sim) lossChurnPerQuarter() float64 {
	d := float64(lossChurnPerDay) // 1-d in float64, not in exact constant arithmetic
	return 1 - math.Pow(1-d, 1.0/lossQuartersPerDay)
}

// lossSaltFor chains per-quarter loss re-rolls for one directed link.
func (s *Sim) lossSaltFor(l netsim.LinkID, dirAB bool, quarter int) (salt uint64, changed bool) {
	dir := uint64(0)
	if dirAB {
		dir = 1
	}
	q := s.lossChurnPerQuarter()
	last := 0
	for d := 1; d <= quarter; d++ {
		if hashFloat(mix(uint64(s.seed), 0x88, uint64(l)<<1|dir, uint64(d))) < q {
			last = d
		}
	}
	return mix(uint64(s.seed), 0x99, uint64(l)<<1|dir, uint64(last)), last != 0
}

// LinkLoss returns the loss rate of link l in the direction leaving PoP
// `from` on the given day (quarter 0 of that day).
func (s *Sim) LinkLoss(l netsim.LinkID, from netsim.PoPID, day int) float64 {
	return s.LinkLossQuarter(l, from, day*lossQuartersPerDay)
}

// LinkLossQuarter returns the loss rate at quarter-day granularity
// (quarter = 4*day + {0,1,2,3}). Quarter 0 uses the topology's base loss;
// later quarters chain deterministic re-rolls.
func (s *Sim) LinkLossQuarter(l netsim.LinkID, from netsim.PoPID, quarter int) float64 {
	lk := &s.Top.Links[l]
	dirAB := lk.A == from
	base := lk.LossBA
	if dirAB {
		base = lk.LossAB
	}
	if quarter == 0 {
		return base
	}
	salt, changed := s.lossSaltFor(l, dirAB, quarter)
	if !changed {
		return base
	}
	// Redraw from the same distribution the generator used.
	cfg := s.Top.Cfg
	if hashFloat(mix(salt, 1, 0, 0)) >= cfg.LossyLinkProb {
		return 0
	}
	return cfg.LossMin + hashFloat(mix(salt, 2, 0, 0))*(cfg.LossMax-cfg.LossMin)
}

// AccessLoss returns the last-mile loss of an edge prefix on the given day.
func (s *Sim) AccessLoss(p netsim.Prefix, day int) float64 {
	base := s.Top.PrefixAccessLoss[p]
	if day == 0 {
		return base
	}
	last := 0
	for d := 1; d <= day; d++ {
		if hashFloat(mix(uint64(s.seed), 0xaa, uint64(p), uint64(d))) < lossChurnPerDay {
			last = d
		}
	}
	if last == 0 {
		return base
	}
	salt := mix(uint64(s.seed), 0xab, uint64(p), uint64(last))
	cfg := s.Top.Cfg
	if hashFloat(mix(salt, 1, 0, 0)) >= cfg.EdgeLossyProb {
		return 0
	}
	return cfg.LossMin + hashFloat(mix(salt, 2, 0, 0))*(cfg.LossMax-cfg.LossMin)
}

// mix is a splitmix64-style hash over four words; it is the deterministic
// randomness source for everything day-dependent.
func mix(a, b, c, d uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9 ^ c*0x94d049bb133111eb ^ d*0x2545f4914f6cdd1d
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashFloat maps a hash word to [0,1).
func hashFloat(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}
