package inano

import (
	"inano/internal/atlas"
	"inano/internal/core"
	"inano/internal/feedback"
)

// TracerouteHop is one observed hop of a client-side traceroute. A zero IP
// records an unresponsive hop.
type TracerouteHop = feedback.Hop

// LocalTraceroute is a traceroute measured by this host (the library's
// measurement toolkit issues these daily to a few hundred random prefixes,
// §5 "Client-side Measurements" — and the feedback corrector issues them
// on demand at the worst-mispredicted destinations).
type LocalTraceroute = feedback.Traceroute

// AddTraceroutes merges locally measured traceroutes into the FROM_SRC
// plane of the atlas, improving predictions for paths out of this host
// (§4.3.1). Interfaces unknown to the atlas are grouped into local clusters
// by their /24 (a coarse client-side approximation of the server's full
// clustering). It returns the number of atlas changes merged (new links,
// plane tags, attachment entries) and rebuilds the prediction engine when
// anything changed. The merge mechanics live in internal/feedback, shared
// with the corrective scheduler.
func (c *Client) AddTraceroutes(trs []LocalTraceroute) int {
	// A traceroute can only contribute through hops that answered: links
	// need two resolvable hops, attachment entries one. A batch whose hops
	// are all unresponsive (zero IP) is a no-op — skip the inflate and the
	// engine rebuild entirely.
	if !feedback.AnyResponsive(trs) {
		return 0
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	cur := c.engine.Load()
	// The merge edits the map form, inflated from the serving form for the
	// occasion; queries keep reading cur until the result is published.
	a := cur.Flat().Inflate()
	clusters := a.NumClusters
	structural, residual := feedback.Merge(a, c.localCluster, trs)
	if structural == 0 && a.NumClusters == clusters {
		if residual == 0 {
			return 0 // nothing merged; keep serving the same engine
		}
		// Residual-only merge: route computation is untouched, so the
		// new engine adopts the warm prediction-tree cache instead of
		// cold-starting the serving path every corrective round.
		c.publish(core.NewWithCache(atlas.Compile(a), c.opts, cur))
		return residual
	}
	feedback.Finalize(a)
	c.publish(core.New(a, c.opts))
	return structural + residual
}
