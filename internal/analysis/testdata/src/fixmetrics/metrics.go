// Package fixmetrics is the fixture registry for the metricdoc analyzer;
// the method set mirrors internal/metrics.Registry.
package fixmetrics

// Registry registers fixture metrics.
type Registry struct{}

// NewCounter registers a counter.
func (r *Registry) NewCounter(name, help string, labels ...string) int { return 0 }

// NewCounterFunc registers a computed counter.
func (r *Registry) NewCounterFunc(name, help string, f func() float64) int { return 0 }

// NewGauge registers a gauge.
func (r *Registry) NewGauge(name, help string, labels ...string) int { return 0 }

// NewGaugeFunc registers a computed gauge.
func (r *Registry) NewGaugeFunc(name, help string, f func() float64) int { return 0 }

// NewHistogram registers a histogram.
func (r *Registry) NewHistogram(name, help string, labels []string, bounds []float64) int { return 0 }
