// Package metrics is a small dependency-free instrumentation registry for
// the query daemon: counters, gauges, and fixed-bucket histograms with
// lock-free hot paths, exposed in the Prometheus text format and, for
// people, as one JSON object of the same series. It implements just the
// subset inanod needs — constant label sets chosen at registration time,
// cumulative histograms with approximate quantiles — so the serving path
// carries no external client library.
package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed cumulative buckets, Prometheus
// style: bucket i counts observations <= Bounds[i], with an implicit +Inf
// bucket at the end. Observe is lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	sum    atomicFloat
	count  atomic.Uint64
}

// DefLatencyBuckets spans 100µs..10s, the range of interest for query and
// batch request latencies (seconds).
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// DefErrorBuckets spans relative prediction error from 1% to the feedback
// tracker's 2.0 cap — fine resolution around the "prediction basically
// right" region so error quantiles stay meaningful as accuracy improves.
var DefErrorBuckets = []float64{
	0.01, 0.02, 0.05, 0.10, 0.15, 0.25, 0.40, 0.60, 0.85, 1.0, 1.5, 2.0,
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the bucket that holds it; observations beyond the last bound
// report the last bound. With no observations it returns 0. The estimate's
// resolution is the bucket width — good enough for dashboards, not billing.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := uint64(0)
	lo := 0.0
	for i, b := range h.bounds {
		c := h.counts[i].Load()
		if float64(cum)+float64(c) >= rank {
			if c == 0 {
				return b
			}
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + frac*(b-lo)
		}
		cum += c
		lo = b
	}
	return h.bounds[len(h.bounds)-1]
}

// atomicFloat is a float64 added to with CAS.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// series is one registered metric instance: a family name plus an optional
// constant label set, e.g. name="http_requests_total", labels=`handler="query"`.
type series struct {
	labels string
	value  func() float64 // scalar metrics
	hist   *Histogram     // histogram metrics (value == nil)
}

// family groups the series sharing one metric name (one HELP/TYPE block).
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	series []*series
}

// Registry holds registered metrics and renders them. Registration is
// expected at startup; it is safe for concurrent use with rendering.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family

	// One render at a time, each numbered, so a Sampled source is read
	// once a render.
	rendering sync.Mutex
	renders   uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) register(name, help, typ, labels string) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as both %s and %s", name, f.typ, typ))
	}
	for _, s := range f.series {
		if s.labels == labels {
			panic(fmt.Sprintf("metrics: duplicate series %s{%s}", name, labels))
		}
	}
	s := &series{labels: labels}
	f.series = append(f.series, s)
	return s
}

// Sampled returns read as a source for the value functions of r's series:
// one render reads it once, however many series draw on it, so they all
// show the same instant — and a source that costs a lock or a sweep costs
// it once a scrape. Call what it returns only from such functions: r's
// renders, which run one at a time, are what keep it safe.
func Sampled[T any](r *Registry, read func() T) func() T {
	var (
		at uint64 // the render v was read in
		v  T
	)
	return func() T {
		if at != r.renders {
			at, v = r.renders, read()
		}
		return v
	}
}

// render writes every registered family, as write renders them, to w. The
// series are read into a buffer first, under the render lock — a client
// slow to take the bytes holds up no other render.
func (r *Registry) render(w io.Writer, write func(*bytes.Buffer, []*family)) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	var buf bytes.Buffer
	r.rendering.Lock()
	r.renders++
	write(&buf, fams)
	r.rendering.Unlock()
	_, err := w.Write(buf.Bytes())
	return err
}

// NewCounter registers a counter. labels is a raw constant label list like
// `handler="query"`, or "" for none.
func (r *Registry) NewCounter(name, help, labels string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", labels).value = func() float64 { return float64(c.Value()) }
	return c
}

// NewCounterFunc registers a counter whose value is sampled at render time
// — the shape for monotonic counts owned elsewhere (evictions, samples).
func (r *Registry) NewCounterFunc(name, help, labels string, fn func() float64) {
	r.register(name, help, "counter", labels).value = fn
}

// NewGauge registers a gauge.
func (r *Registry) NewGauge(name, help, labels string) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", labels).value = func() float64 { return float64(g.Value()) }
	return g
}

// NewGaugeFunc registers a gauge whose value is sampled at render time —
// the shape for values owned elsewhere (cache stats, atlas day).
func (r *Registry) NewGaugeFunc(name, help, labels string, fn func() float64) {
	r.register(name, help, "gauge", labels).value = fn
}

// NewHistogram registers a histogram over the given ascending upper bounds
// (nil means DefLatencyBuckets).
func (r *Registry) NewHistogram(name, help, labels string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("metrics: histogram bounds not ascending")
	}
	h := &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	r.register(name, help, "histogram", labels).hist = h
	return h
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.render(w, func(buf *bytes.Buffer, fams []*family) {
		for _, f := range fams {
			fmt.Fprintf(buf, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
			for _, s := range f.series {
				if s.hist != nil {
					writeHistogram(buf, f.name, s.labels, s.hist)
				} else {
					fmt.Fprintf(buf, "%s%s %s\n", f.name, braced(s.labels), formatValue(s.value()))
				}
			}
		}
	})
}

// WriteJSON renders every registered series as one JSON object, in
// registration order, keyed by its exposition name: the family name, with
// its labels in braces when it has any (`name{handler="query"}`). A scalar
// is a number, null when it is not finite. A histogram is an object of its
// count, sum and estimated p50, p90 and p99 (Histogram.Quantile).
func (r *Registry) WriteJSON(w io.Writer) error {
	return r.render(w, func(buf *bytes.Buffer, fams []*family) {
		sep := "{\n"
		for _, f := range fams {
			for _, s := range f.series {
				key, _ := json.Marshal(f.name + braced(s.labels))
				fmt.Fprintf(buf, "%s%s:", sep, key)
				sep = ",\n"
				if s.hist == nil {
					buf.WriteString(jsonValue(s.value()))
					continue
				}
				h := s.hist
				fmt.Fprintf(buf, `{"count":%d,"sum":%s,"p50":%s,"p90":%s,"p99":%s}`, h.Count(), jsonValue(h.Sum()),
					jsonValue(h.Quantile(0.50)), jsonValue(h.Quantile(0.90)), jsonValue(h.Quantile(0.99)))
			}
		}
		if sep == "{\n" {
			buf.WriteString("{")
		}
		buf.WriteString("}\n")
	})
}

// jsonValue renders v as a JSON number, or null when JSON has none for it.
func jsonValue(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "null"
	}
	return formatValue(v)
}

func writeHistogram(buf *bytes.Buffer, name, labels string, h *Histogram) {
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(buf, "%s_bucket%s %d\n", name, braced(joinLabels(labels, `le="`+formatValue(b)+`"`)), cum)
	}
	// The +Inf bucket equals _count by definition; read count last so the
	// rendered buckets never exceed it under concurrent Observes.
	total := cum + h.counts[len(h.bounds)].Load()
	fmt.Fprintf(buf, "%s_bucket%s %d\n", name, braced(joinLabels(labels, `le="+Inf"`)), total)
	fmt.Fprintf(buf, "%s_sum%s %s\n", name, braced(labels), formatValue(h.Sum()))
	fmt.Fprintf(buf, "%s_count%s %d\n", name, braced(labels), total)
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// formatValue renders floats the way Prometheus expects: integers without a
// decimal point, everything else in shortest-round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// PeakRSSMB reads the process's peak resident set (VmHWM) from
// /proc/self/status. ok is false where procfs is unavailable.
func PeakRSSMB() (mb int, ok bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	if _, rest, found := strings.Cut(string(data), "\nVmHWM:"); found {
		var kb int
		if _, err := fmt.Sscan(rest, &kb); err == nil {
			return kb >> 10, true
		}
	}
	return 0, false
}
