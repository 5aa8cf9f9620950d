// Package trace simulates the measurement infrastructure the paper's atlas
// is built from: traceroutes issued by vantage points (PlanetLab-like) and
// end-host agents (DIMES-like), and ICMP probe trains for loss rates.
//
// Traceroutes observe interface-level hops: entering a PoP through a given
// link consistently reveals the same router interface (as on real routers,
// where the ingress interface answers), so alias resolution and PoP
// clustering (internal/cluster) are a genuine inference problem. Hop RTTs
// compose the forward sub-path with the asymmetric reverse path from the
// hop back to the source, plus measurement noise; some routers never
// respond and individual hops drop transiently.
//
// The contract of that noise: every measurement draws math/rand's stream —
// the numbers rand.New(rand.NewSource(seed)) yields — for a seed derived
// from (world seed, kind, a, b, and the day unless the measurement must not
// drift day over day). The benchmark's world and every paper-figure bound
// are functions of those numbers: how a stream is produced may change
// (noise.go), which stream may not, and sim's TestBuildGoldenBytes holds it.
package trace

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"inano/internal/bgpsim"
	"inano/internal/netsim"
)

// Measurement realism, as used throughout the evaluation.
const (
	// darkRouterProb is the probability that a PoP's routers never answer
	// traceroute probes (consistent per PoP).
	darkRouterProb = 0.04
	// transientLossProb is the per-hop probability of a missing response
	// on an otherwise responsive router.
	transientLossProb = 0.02
	// rttNoiseFrac scales multiplicative RTT measurement noise.
	rttNoiseFrac = 0.03
	// unreachableProb is the probability a destination host does not
	// answer at all (probe filtered); the traceroute still records
	// intermediate hops but Reached is false.
	unreachableProb = 0.03
)

// Hop is one observed traceroute hop.
type Hop struct {
	// IP is the responding interface, or 0 for a '*' (no response).
	IP netsim.IP
	// RTTMS is the measured round-trip time to this hop (0 when IP==0).
	RTTMS float64
}

// Traceroute is one measured forward path.
type Traceroute struct {
	Src     netsim.Prefix
	Dst     netsim.Prefix
	Day     int
	Hops    []Hop
	Reached bool
	// TruePoPs is the ground-truth PoP sequence; retained for evaluation
	// only and never consulted by the predictor or the atlas builder's
	// inference (the builder works from Hops).
	TruePoPs []netsim.PoPID
}

// Meter issues simulated measurements against one routing day.
type Meter struct {
	day *bgpsim.Day
	top *netsim.Topology
	// seed derives the day's measurement noise; stableSeed that of
	// measurements that must not drift day over day (link latencies are
	// "extremely stable" per §6.2 — re-rolled daily they balloon the deltas).
	seed, stableSeed uint64

	// rev remembers, for each source a traceroute ran from, the one-way
	// latency of the day's path back to it from each PoP a hop asked about:
	// a campaign asks a dozen times per distinct (source, PoP), and a day's
	// routes never change. A traceroute takes its source's table once,
	// under mu; its hops read and fill slots without a lock.
	mu  sync.Mutex
	rev map[netsim.Prefix][]atomic.Uint64
}

// A rev slot holds math.Float64bits of the latency plus one, revNone when
// there is no path back, and 0 until it is first asked for.
const revNone = math.MaxUint64

// NewMeter creates a measurement harness for the given day view.
func NewMeter(day *bgpsim.Day) *Meter {
	s := day.Sim()
	stable := uint64(s.Top.Cfg.Seed) * 0x5851f42d4c957f2d
	return &Meter{
		day: day, top: s.Top,
		seed: stable + uint64(day.DayNum())*0x14057b7ef767814f, stableSeed: stable,
		rev: make(map[netsim.Prefix][]atomic.Uint64),
	}
}

// revFor returns src's table of reverse latencies, by PoP.
func (m *Meter) revFor(src netsim.Prefix) []atomic.Uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.rev[src] == nil {
		m.rev[src] = make([]atomic.Uint64, len(m.top.PoPs))
	}
	return m.rev[src]
}

// revMS returns the one-way latency of the day's path from PoP p back to
// src, whose table is rev, computing it the first time it is asked for.
// Two goroutines that miss together both compute it; the answers are
// equal.
func (m *Meter) revMS(rev []atomic.Uint64, p netsim.PoPID, src netsim.Prefix) (ms float64, ok bool) {
	w := rev[p].Load()
	if w == 0 {
		w = revNone
		if path, ok := m.day.PoPPath(p, src); ok {
			w = math.Float64bits(path.OneWayMS) + 1
		}
		rev[p].Store(w)
	}
	return math.Float64frombits(w - 1), w != revNone
}

// ifaceFor returns the interface revealed when entering PoP p via link l
// (l == -1 for the first hop). The choice is stable: the same ingress
// always shows the same interface.
func (m *Meter) ifaceFor(p netsim.PoPID, l netsim.LinkID) netsim.IP {
	pop := &m.top.PoPs[p]
	if len(pop.Routers) == 0 {
		return 0
	}
	h := uint64(p)*0x9e3779b97f4a7c15 ^ uint64(l+1)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	r := m.top.Routers[pop.Routers[h%uint64(len(pop.Routers))]]
	if len(r.Ifaces) == 0 {
		return 0
	}
	return r.Ifaces[(h>>16)%uint64(len(r.Ifaces))]
}

// popDark reports whether a PoP's routers are consistently unresponsive.
func (m *Meter) popDark(p netsim.PoPID) bool {
	h := uint64(m.top.Cfg.Seed)*0x2545f4914f6cdd1d ^ uint64(p)*0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	return float64(h>>11)/float64(1<<53) < darkRouterProb
}

// Traceroute measures the path from a host in src to the probe host of dst.
func (m *Meter) Traceroute(src, dst netsim.Prefix) Traceroute {
	tr := Traceroute{Src: src, Dst: dst, Day: m.day.DayNum()}
	fwd, ok := m.day.Route(src, dst)
	if !ok {
		return tr
	}
	rng := noiseFor(m.seed, 1, uint64(src), uint64(dst))
	defer noisePool.Put(rng)
	top, rev := m.top, m.revFor(src)
	accessSrc := top.PrefixAccessMS[src]
	fwdAccum := 0.0
	tr.TruePoPs = fwd.PoPs()
	tr.Hops = make([]Hop, 0, len(fwd.Hops)+1)
	for i, h := range fwd.Hops {
		if i > 0 {
			fwdAccum += top.Links[h.Link].LatencyMS
		}
		if m.popDark(h.PoP) || rng.Float64() < transientLossProb {
			tr.Hops = append(tr.Hops, Hop{})
			continue
		}
		revMS, ok := m.revMS(rev, h.PoP, src)
		if !ok {
			tr.Hops = append(tr.Hops, Hop{})
			continue
		}
		rtt := 2*accessSrc + fwdAccum + revMS
		rtt *= 1 + rttNoiseFrac*rng.Float64()
		tr.Hops = append(tr.Hops, Hop{IP: m.ifaceFor(h.PoP, h.Link), RTTMS: rtt})
	}
	// Destination host hop.
	if rng.Float64() >= unreachableProb {
		// Day.RTT(src, dst), from the forward route already in hand and the
		// remembered reverse one.
		if revMS, ok := m.revMS(rev, top.PrefixHome[dst], src); ok {
			rtt := fwd.OneWayMS + revMS + 2*(accessSrc+top.PrefixAccessMS[dst])
			rtt *= 1 + rttNoiseFrac*rng.Float64()
			tr.Hops = append(tr.Hops, Hop{IP: dst.HostIP(), RTTMS: rtt})
			tr.Reached = true
		}
	}
	return tr
}

// MeasureLinkLatency simulates iNano's symmetric-traversal link latency
// measurement [28]: an unbiased estimate of the link's one-way latency with
// small multiplicative error.
func (m *Meter) MeasureLinkLatency(l netsim.LinkID) float64 {
	rng := noiseFor(m.stableSeed, 3, uint64(l), 0)
	defer noisePool.Put(rng)
	lat := m.top.Links[l].LatencyMS
	return lat * (1 + 0.04*(rng.Float64()-0.5))
}

// CoarseLinkLatency estimates a link's latency by differencing hop RTTs, as
// the builder must do for links no vantage point was assigned to measure
// directly. Reverse-path asymmetry makes this much noisier than
// MeasureLinkLatency (±30% versus ±2%).
func (m *Meter) CoarseLinkLatency(l netsim.LinkID) float64 {
	rng := noiseFor(m.stableSeed, 5, uint64(l), 0)
	defer noisePool.Put(rng)
	lat := m.top.Links[l].LatencyMS * (1 + 0.6*(rng.Float64()-0.5))
	if lat < 0.05 {
		lat = 0.05
	}
	return lat
}

// MeasureLinkLoss simulates probing one directed link's loss rate with a
// probe train (achieved by frontier-assigned vantage points in the paper).
func (m *Meter) MeasureLinkLoss(l netsim.LinkID, from netsim.PoPID, probes int) float64 {
	rng := noiseFor(m.seed, 4, uint64(l), uint64(from))
	defer noisePool.Put(rng)
	p := m.day.Sim().LinkLoss(l, from, m.day.DayNum())
	lost := 0
	for i := 0; i < probes; i++ {
		if rng.Float64() < p {
			lost++
		}
	}
	return float64(lost) / float64(probes)
}

// Campaign is one day's measurement run: every vantage point traceroutes
// every target (paper: 197 PlanetLab nodes x 140K prefixes).
type Campaign struct {
	Day         int
	VPs         []netsim.Prefix
	Targets     []netsim.Prefix
	Traceroutes []Traceroute
}

// RunCampaign traceroutes all targets from all vantage points, in parallel
// across vantage points. Results are deterministic and ordered by (vp,
// target).
func RunCampaign(m *Meter, vps, targets []netsim.Prefix) *Campaign {
	c := &Campaign{Day: m.day.DayNum(), VPs: vps, Targets: targets}
	c.Traceroutes = make([]Traceroute, len(vps)*len(targets))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for vi, vp := range vps {
		wg.Add(1)
		sem <- struct{}{}
		go func(vi int, vp netsim.Prefix) {
			defer wg.Done()
			defer func() { <-sem }()
			for ti, dst := range targets {
				c.Traceroutes[vi*len(targets)+ti] = m.Traceroute(vp, dst)
			}
		}(vi, vp)
	}
	wg.Wait()
	return c
}

// SelectVantagePoints picks n edge prefixes spread across the AS population
// to act as PlanetLab-like vantage points (deterministic for a topology).
func SelectVantagePoints(top *netsim.Topology, n int) []netsim.Prefix {
	eps := top.EdgePrefixes
	if n >= len(eps) {
		n = len(eps)
	}
	out := make([]netsim.Prefix, 0, n)
	seen := make(map[netsim.ASN]bool)
	step := len(eps) / n
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(eps) && len(out) < n; i += step {
		p := eps[i]
		asn := top.PrefixOrigin[p]
		if seen[asn] {
			continue
		}
		seen[asn] = true
		out = append(out, p)
	}
	// Backfill if AS dedup left us short.
	for i := 0; i < len(eps) && len(out) < n; i++ {
		dup := false
		for _, q := range out {
			if q == eps[i] {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, eps[i])
		}
	}
	return out
}
