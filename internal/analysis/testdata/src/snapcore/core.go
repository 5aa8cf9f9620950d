// Package snapcore is the fixture engine constructor for the snapmut
// analyzer: New compiles its atlas argument into a snapshot and keeps no
// reference to it, as core.New does.
package snapcore

import "snapatlas"

// Engine is the fixture engine: it holds only the compiled form.
type Engine struct{ clusters []int }

// New snapshots a.
func New(a *snapatlas.Atlas) *Engine {
	return &Engine{clusters: append([]int(nil), a.Clusters...)}
}
