package feedback

import (
	"errors"

	"inano/internal/atlas"
	"inano/internal/cluster"
	"inano/internal/netsim"
)

// Hop-path clusterization: the structural half of upstream observation
// sharing. An uploaded observation's hop list is turned into a cluster
// sequence against the serving atlas at ingest — the only moment a
// trusted mapping exists — and the aggregator then votes cluster
// sequences, not raw IPs, across reporters. Only the destination-side
// contiguous tail of a traceroute is kept: that is the segment
// independent reporters can corroborate (their paths converge near the
// destination), and the segment the build can fold into everyone's atlas
// (atlas.FoldPaths).

// MaxPathTailClusters caps the clusterized tail kept from one hop list.
// Destination-side structure is the valuable part (the source side is the
// reporter's private access path, which no other reporter can
// corroborate), so longer paths keep their last clusters.
const MaxPathTailClusters = 16

// Hop-list validation errors returned by ClusterizeHops. The server
// counts them; the observation's scalar residual is still usable.
var (
	// ErrUnmappableHop rejects hop lists whose destination-side tail
	// contains a responsive hop the atlas cannot place in any cluster:
	// an unplaceable hop cannot be voted on, and trusting the rest of
	// the list would let a reporter smuggle structure past agreement.
	ErrUnmappableHop = errors.New("feedback: unmappable hop in destination-side tail")
	// ErrLoopingPath rejects hop lists whose clusterized tail visits a
	// cluster twice: measurement artifacts (or fabrication) that must
	// not become atlas structure.
	ErrLoopingPath = errors.New("feedback: looping hop list")
)

// ClusterizeHops maps a traceroute hop list onto the serving atlas's
// cluster space and returns the destination-side contiguous tail as a
// cluster sequence plus per-link one-way latency estimates
// (len(linkMS) == len(path)-1), derived from adjacent hop RTT deltas the
// way the client-side merge derives them.
//
// Rules, in order:
//
//   - Hops inside the destination prefix are the destination host itself,
//     not infrastructure; they are dropped (the tail then ends at the
//     destination's last infrastructure cluster — its attachment).
//   - Unresponsive hops ('*', zero IP) break contiguity: only the tail
//     after the last gap is considered, everything before it is ignored.
//   - A responsive tail hop the resolver cannot place rejects the whole
//     list (ErrUnmappableHop); a tail revisiting a cluster rejects it too
//     (ErrLoopingPath).
//   - Consecutive hops in one cluster collapse into one step; the tail is
//     capped at MaxPathTailClusters, keeping the destination end.
//
// A valid but too-short tail (fewer than two clusters) returns a nil path
// and no error: nothing structural to share, nothing to reject. resolve
// maps a hop interface's /24 to its cluster — use inano.Snapshot.HopCluster
// (the interface-prefix table with the attachment table as fallback);
// the attachment table alone cannot place infrastructure /24s and would
// reject most real hop lists.
func ClusterizeHops(hops []Hop, dst netsim.Prefix, resolve func(netsim.Prefix) (int32, bool)) ([]cluster.ClusterID, []float64, error) {
	// Keep the contiguous run after the last unresponsive hop.
	tail := hops
	for i := len(hops) - 1; i >= 0; i-- {
		if hops[i].IP == 0 {
			tail = hops[i+1:]
			break
		}
	}
	type step struct {
		cl       cluster.ClusterID
		entryRTT float64
		exitRTT  float64
	}
	var steps []step
	for _, h := range tail {
		p := netsim.PrefixOf(h.IP)
		if p == dst {
			continue // destination host hop, not infrastructure
		}
		cl, ok := resolve(p)
		if !ok {
			return nil, nil, ErrUnmappableHop
		}
		c := cluster.ClusterID(cl)
		if n := len(steps); n > 0 && steps[n-1].cl == c {
			steps[n-1].exitRTT = h.RTTMS
			continue
		}
		steps = append(steps, step{cl: c, entryRTT: h.RTTMS, exitRTT: h.RTTMS})
	}
	seen := make(map[cluster.ClusterID]bool, len(steps))
	for _, s := range steps {
		if seen[s.cl] {
			return nil, nil, ErrLoopingPath
		}
		seen[s.cl] = true
	}
	if len(steps) > MaxPathTailClusters {
		steps = steps[len(steps)-MaxPathTailClusters:]
	}
	if len(steps) < 2 {
		return nil, nil, nil
	}
	path := make([]cluster.ClusterID, len(steps))
	linkMS := make([]float64, len(steps)-1)
	for i, s := range steps {
		path[i] = s.cl
		if i > 0 {
			linkMS[i-1] = atlas.HopLatencyMS(s.entryRTT - steps[i-1].exitRTT)
		}
	}
	return path, linkMS, nil
}
