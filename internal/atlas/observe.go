package atlas

import (
	"slices"

	"inano/internal/cluster"
	"inano/internal/netsim"
)

// Folding aggregated client observations into the build (§5 both ways):
// the build server's feedback.Aggregator reduces uploaded corrective
// observations to one robust RTT residual per destination prefix;
// FoldObservations turns those residuals into the atlas's
// GlobalAdjustMS dataset so the correction ships to every peer inside
// the ordinary daily delta — the encoded, bounded, auditable path the
// client-local AdjustMS corrections deliberately never take.

// MaxObservationFoldMS caps the magnitude of one shipped per-prefix
// correction, mirroring the client-side cap on a single host's residual
// corrections (feedback.MaxAdjustMS). Decoders reject atlases and deltas
// that exceed it, so a compromised build cannot ship unbounded skew.
const MaxObservationFoldMS = 100.0

// FoldGain is the fraction of the aggregated residual one day's fold
// applies. The build re-measures residuals against its *already
// corrected* serving atlas, so successive days converge geometrically on
// the measured truth (the same half-step the client-local merge uses);
// a gain below 1 also damps the reporter-side noise a one-shot median
// cannot remove.
const FoldGain = 0.5

// minFoldMS is the smallest correction worth shipping; below it the
// signal drowns in the codec's 0.01ms quantization and day-to-day
// annotation noise, and the delta bytes are better spent elsewhere.
const minFoldMS = 0.25

// FoldObservations returns a copy of a with the aggregated residuals
// folded into its GlobalAdjustMS dataset, plus the number of corrections
// now carried. Starting from the measured atlas's own (usually empty)
// correction set, each aggregated prefix the atlas can place (a known
// attachment cluster) gains the *stacked* correction: whatever the atlas
// already carried for the prefix plus FoldGain of the newly measured
// residual, clamped to ±MaxObservationFoldMS. Prefixes absent from the
// snapshot keep (or shed, per the builder's choice of base) their prior
// correction; prefixes the atlas cannot place are skipped.
func FoldObservations(a *Atlas, residuals map[netsim.Prefix]float64) (*Atlas, int) {
	b := a.Clone()
	for p, r := range residuals {
		if _, ok := b.PrefixCluster[p]; !ok {
			continue
		}
		next := float64(b.GlobalAdjustMS[p]) + FoldGain*r
		if next > MaxObservationFoldMS {
			next = MaxObservationFoldMS
		} else if next < -MaxObservationFoldMS {
			next = -MaxObservationFoldMS
		}
		if next < minFoldMS && next > -minFoldMS {
			delete(b.GlobalAdjustMS, p)
			continue
		}
		b.GlobalAdjustMS[p] = float32(next)
	}
	return b, len(b.GlobalAdjustMS)
}

// BuildDeltaWithObservations computes the daily delta from prev to next
// with the aggregated observation residuals folded into next first — so
// the corrections ship to the swarm as ordinary delta structure and every
// client applying the delta (reporting or not) serves them. next is
// typically a new measurement build carrying prev's corrections forward
// (CarryCorrections), so a destination nobody re-reported keeps its
// correction until the builder expires it. It returns the delta, the
// folded next-day atlas (what the build should archive as the day's
// canonical atlas), and the number of corrections it carries.
func BuildDeltaWithObservations(prev, next *Atlas, residuals map[netsim.Prefix]float64) (*Delta, *Atlas, int) {
	folded, n := FoldObservations(next, residuals)
	return Diff(prev, folded), folded, n
}

// Structural fold (the FROM_SRC growth loop): beyond scalar residuals,
// uploaded corrective traceroutes carry hop lists. The ingest clusterizes
// them against the serving atlas, the aggregator reduces them to one
// reporter-agreed destination-side tail per prefix, and FoldPaths turns
// those agreed tails into real atlas structure — links and attachment
// entries — so a destination only reporting clients ever probed becomes
// predictable for every peer through the ordinary daily delta. This is
// the ROADMAP's "clients as measurement vantage points": a cluster
// sequence corroborated by independent reporter networks is treated as
// vantage-point-grade evidence, so folded links carry both plane tags.

// ObservedTTLDays is the carry lifetime of crowd-observed structure: a
// folded link or attachment entry survives this many day rolls without
// renewed reporter agreement before the build drops it (the structural
// mirror of CarryCorrections' halve-then-drop for scalar corrections).
const ObservedTTLDays = 2

// minHopLatencyMS floors a link latency estimated from hop RTTs: the RTT
// step between adjacent hops is noisy (reverse-path asymmetry) and can go
// negative, and a zero-cost link would distort every tree that touches it.
const minHopLatencyMS = 0.1

// HopLatencyMS estimates the one-way latency of the link between two
// adjacent traceroute hops from the step between their RTTs: half of it,
// floored at 0.1 ms. Client merges and reporters' path tails both use it.
func HopLatencyMS(rttStepMS float64) float64 { return max(rttStepMS/2, minHopLatencyMS) }

// ObservedPath is one reporter-agreed destination-side path tail, ready to
// fold into the build: the cluster sequence (source end first, every
// cluster already known to the serving atlas) and the per-link one-way
// latency estimates derived from the reporters' hop RTTs
// (len(LinkMS) == len(Clusters)-1).
type ObservedPath struct {
	// Dst is the destination /24 the reporters reached.
	Dst netsim.Prefix
	// Clusters is the agreed cluster sequence, source end first.
	Clusters []cluster.ClusterID
	// LinkMS carries per-link one-way latency estimates
	// (len(LinkMS) == len(Clusters)-1).
	LinkMS []float64
}

// PathFoldStats summarizes one FoldPaths run.
type PathFoldStats struct {
	// PathsFolded counts agreed paths applied; PathsSkipped counts paths
	// rejected at fold time (clusters outside the build's registry, loops,
	// too short — a stale or corrupt snapshot, not an honest aggregate).
	PathsFolded, PathsSkipped int
	// NewLinks is links the fold added; RefreshedLinks is folded links
	// whose lifetime the fold restored to ObservedTTLDays; MeasuredLinks
	// counts agreed links the campaign had already measured itself
	// (nothing to add).
	NewLinks, RefreshedLinks, MeasuredLinks int
	// NewAttach counts destination attachment entries learned from tails.
	NewAttach int
}

// FoldPaths folds reporter-agreed path tails into a, in place (the caller
// owns copy-on-write; inano-build applies it to the already-cloned folded
// atlas). For each agreed tail it adds the missing directed links
// (annotated with the reporters' median hop-RTT-delta latencies, both
// plane tags, and an ObservedLinks TTL), refreshes the TTL of folded links
// the snapshot re-supports, and — when the destination prefix has no
// attachment cluster — learns one from the tail's last infrastructure
// cluster, so the destination becomes predictable at all. Links entering
// the destination prefix's origin AS also fold in reverse (stub access
// circuits are symmetric; the same reversal the builder applies). Paths
// naming clusters outside a's registry are skipped: agreement happened
// against a serving day whose IDs this build no longer carries.
func FoldPaths(a *Atlas, paths []ObservedPath) PathFoldStats {
	var st PathFoldStats
	if a.ObservedLinks == nil {
		a.ObservedLinks = make(map[uint64]uint8)
	}
	if a.ObservedAttach == nil {
		a.ObservedAttach = make(map[netsim.Prefix]uint8)
	}
	for _, p := range paths {
		if !foldablePath(a, p) {
			st.PathsSkipped++
			continue
		}
		st.PathsFolded++
		originAS := a.PrefixAS[p.Dst]
		for i := 0; i+1 < len(p.Clusters); i++ {
			from, to := p.Clusters[i], p.Clusters[i+1]
			// An estimate off a snapshot file: floored as HopLatencyMS
			// floors the ones it makes.
			lat := max(p.LinkMS[i], minHopLatencyMS)
			foldLink(a, &st, from, to, lat)
			// Access-tail reversal, as in the builder: links inside (or
			// entering) the destination's origin AS are the same circuits
			// in both directions, and without the reverse direction no
			// path out of the destination's network is ever predictable.
			if originAS != 0 && a.ClusterAS[to] == originAS {
				foldLink(a, &st, to, from, lat)
			}
		}
		last := p.Clusters[len(p.Clusters)-1]
		if _, ok := a.PrefixCluster[p.Dst]; !ok {
			a.PrefixCluster[p.Dst] = last
			a.ObservedAttach[p.Dst] = ObservedTTLDays
			st.NewAttach++
		} else if _, obs := a.ObservedAttach[p.Dst]; obs {
			a.ObservedAttach[p.Dst] = ObservedTTLDays
		}
	}
	return st
}

// foldablePath validates one agreed tail against the build's registry.
func foldablePath(a *Atlas, p ObservedPath) bool {
	if len(p.Clusters) < 2 || len(p.LinkMS) != len(p.Clusters)-1 {
		return false
	}
	seen := make(map[cluster.ClusterID]bool, len(p.Clusters))
	for _, c := range p.Clusters {
		if c < 0 || int(c) >= a.NumClusters || seen[c] {
			return false
		}
		seen[c] = true
	}
	return true
}

// foldLink folds one agreed directed link. Links the campaign measured
// itself are left untouched — a precise vantage-point annotation beats a
// hop-RTT-delta estimate — and graduate out of the observed table. A new
// link goes in at its place in Links, so a later step of the fold finds it.
func foldLink(a *Atlas, st *PathFoldStats, from, to cluster.ClusterID, lat float64) {
	k := LinkKey(from, to)
	i, found := a.search(from, to)
	if !found {
		a.Links = slices.Insert(a.Links, i, Link{
			From:      from,
			To:        to,
			LatencyMS: float32(lat),
			Planes:    PlaneToDst | PlaneFromSrc,
		})
		a.ObservedLinks[k] = ObservedTTLDays
		st.NewLinks++
		return
	}
	ttl, obs := a.ObservedLinks[k]
	switch {
	case !obs:
		st.MeasuredLinks++
	case ttl < ObservedTTLDays:
		a.ObservedLinks[k] = ObservedTTLDays
		st.RefreshedLinks++
	}
}

// CarryFoldedPaths carries prev's crowd-observed structure onto a freshly
// measured atlas, decaying what reporters no longer support: every
// surviving ObservedLinks/ObservedAttach entry loses one TTL roll, entries
// reaching zero are dropped (their links and attachment entries with
// them), and entries whose link the new campaign measured itself graduate
// out of the observed table. Run it before FoldPaths — a tail re-agreed in
// today's snapshot re-folds at full TTL afterwards. Returns the carried
// and dropped entry counts (links + attachments).
func CarryFoldedPaths(next, prev *Atlas) (carried, dropped int) {
	if next.ObservedLinks == nil {
		next.ObservedLinks = make(map[uint64]uint8)
	}
	if next.ObservedAttach == nil {
		next.ObservedAttach = make(map[netsim.Prefix]uint8)
	}
	for k, ttl := range prev.ObservedLinks {
		from := cluster.ClusterID(uint32(k >> 32))
		to := cluster.ClusterID(uint32(k))
		if int(from) >= next.NumClusters || int(to) >= next.NumClusters {
			dropped++
			continue
		}
		at, measured := next.search(from, to)
		if measured {
			continue // measured this campaign: graduated
		}
		if ttl <= 1 {
			dropped++
			continue
		}
		li := prev.LinkAt(from, to)
		if li < 0 {
			dropped++ // prev lost the link some other way
			continue
		}
		next.Links = slices.Insert(next.Links, at, prev.Links[li])
		next.ObservedLinks[k] = ttl - 1
		carried++
	}
	for p, ttl := range prev.ObservedAttach {
		cl, ok := prev.PrefixCluster[p]
		if !ok || int(cl) >= next.NumClusters {
			dropped++
			continue
		}
		if _, measured := next.PrefixCluster[p]; measured {
			continue // the campaign probed it: graduated
		}
		if ttl <= 1 {
			dropped++
			continue
		}
		next.PrefixCluster[p] = cl
		next.ObservedAttach[p] = ttl - 1
		carried++
	}
	return carried, dropped
}

// CarryCorrections copies prev's aggregated corrections onto a freshly
// measured atlas (which starts with none), dropping prefixes the new
// atlas cannot place and halving entries absent from keep — the same
// decay discipline clients apply to their local corrections — so a
// correction no reporter re-supports fades over a few builds instead of
// fossilizing. keep may be nil (everything decays).
func CarryCorrections(next, prev *Atlas, keep map[netsim.Prefix]float64) int {
	if next.GlobalAdjustMS == nil {
		next.GlobalAdjustMS = make(map[netsim.Prefix]float32)
	}
	for p, v := range prev.GlobalAdjustMS {
		if _, ok := next.PrefixCluster[p]; !ok {
			continue
		}
		if _, renewed := keep[p]; !renewed {
			v /= 2
			if v < minFoldMS && v > -minFoldMS {
				continue
			}
		}
		next.GlobalAdjustMS[p] = v
	}
	return len(next.GlobalAdjustMS)
}
