// Package metricuse exercises the metricdoc analyzer against the fixture
// docs/api.md next to this tree.
package metricuse

import "fixmetrics"

func register(r *fixmetrics.Registry, dyn string) {
	r.NewCounter("fix_requests_total", "requests")
	r.NewGauge("fix_tree_cache_hits", "hits")                         // documented via brace group
	r.NewGauge("fix_tree_cache_misses", "misses")                     // documented via brace group
	r.NewCounter("fix_orphan_total", "undocumented")                  // want `metric "fix_orphan_total" registered via NewCounter is not documented`
	r.NewCounterFunc("fix_orphan_evicted_total", "undocumented", nil) // want `metric "fix_orphan_evicted_total" registered via NewCounterFunc is not documented`
	r.NewCounter(dyn, "dynamic names cannot be checked statically")
}
