package inano

import "inano/internal/feedback"

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
// plane tags, attachment entries, residual corrections). What the
// traceroutes teach is worked out against the serving atlas as a same-day
// delta (internal/feedback, shared with the corrective scheduler) and
// applied as ApplyDelta applies one; a batch that teaches nothing — every
// hop unresponsive, or everything already merged — leaves the serving
// engine, and its warm tree cache, alone.
func (c *Client) AddTraceroutes(trs []LocalTraceroute) int {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	cur := c.engine.Load()
	d, structural, residual := feedback.Merge(cur.Flat(), c.localCluster, trs)
	if d.Entries() == 0 {
		return 0
	}
	next, _, err := c.apply(cur, d)
	if err != nil {
		return 0 // cannot happen: a merge names no base, so nothing is refused
	}
	c.publish(cur, next)
	return structural + residual
}
