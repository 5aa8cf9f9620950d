package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// A span is one timed call into a layer. Spans of one request share req;
// parent is the span of the layer that (logically) made the call, -1 for
// a request's outermost layer. Only calls the harness makes itself can be
// timed from outside the program, so an inner layer's span is that layer
// run again on the same input in a later pass, not a slice of the outer
// call's own execution; the one exception is the server handler, whose
// span a wrapper times while the HTTP round trip is in flight.
type span struct {
	layer      uint8
	parent     int32
	req        int32
	start, end int64 // ns since epoch
}

// Layers a span can name, outermost first.
const (
	layerRouter = iota
	layerHTTP
	layerHandler
	layerClientQuery
	layerEngineQuery
	layerClusterOf
	layerHTTPBatch
	layerBatchHandler
	layerStreamBatch
	layerLoadTrial
	layerLoad
	layerDecode
	layerCompile
	layerNewEngine
	layerRollTrial
	layerApplyDelta
	layerDecodeDelta
	layerClone
	layerDeltaApply
	numLayers
)

var layerNames = [numLayers]string{
	"cluster.Router.Handler", "http.RoundTrip", "server.Handler.ServeHTTP",
	"inano.Client.Query", "core.Engine.QueryInto", "atlas.Flat.ClusterOf",
	"http.BatchStream", "server.Handler.ServeHTTP(batch)", "core.StreamBatch.Run",
	"harness.load_trial", "inano.Load", "atlas.Decode", "atlas.Compile", "core.NewFromFlat",
	"harness.roll_trial", "inano.Client.ApplyDelta", "atlas.DecodeDelta", "atlas.Atlas.Clone", "atlas.Atlas.Apply",
}

// maxSpans bounds the trace held in memory (and the file written from
// it); traced rounds stop after the one that reaches it.
const maxSpans = 1 << 16

// tracer records spans in memory. A nil *tracer records nothing, so the
// measured loops call it unconditionally.
type tracer struct {
	spans []span
	req   int32
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, maxSpans)} }

// epoch is the zero of every span's clock.
var epoch = time.Now()

func sinceEpoch() int64 { return int64(time.Since(epoch)) }

func (t *tracer) full() bool { return t != nil && len(t.spans) == cap(t.spans) }

// from returns t for k at or past first and nil, which records nothing,
// before it.
func (t *tracer) from(k, first int) *tracer {
	if k < first {
		return nil
	}
	return t
}

// request starts a new request.
func (t *tracer) request() {
	if t != nil {
		t.req++
	}
}

// begin opens a span and returns its id (-1 when not recording). A span
// with a parent belongs to the parent's request, one without to the
// request last started.
func (t *tracer) begin(layer uint8, parent int32) int32 {
	if t == nil || len(t.spans) == cap(t.spans) {
		return -1
	}
	req := t.req
	if parent >= 0 {
		req = t.spans[parent].req
	}
	t.spans = append(t.spans, span{layer: layer, parent: parent, req: req})
	id := int32(len(t.spans) - 1)
	t.spans[id].start = sinceEpoch()
	return id
}

// end closes a span begin opened.
func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].end = sinceEpoch()
	}
}

// add records a span another goroutine timed.
func (t *tracer) add(layer uint8, parent int32, start, end int64) int32 {
	id := t.begin(layer, parent)
	if id >= 0 {
		t.spans[id].start, t.spans[id].end = start, end
	}
	return id
}

// layerStat is one row of the self-time table.
type layerStat struct {
	Layer  string  `json:"layer"`
	Spans  int     `json:"spans"`
	MeanUS float64 `json:"mean_us"`
	// SelfMeanUS is the span's duration minus its child spans', averaged:
	// the time the layer itself accounts for.
	SelfMeanUS float64 `json:"self_mean_us"`
	// TreeSelfMeanUS is the self time of the span and all its descendants,
	// averaged: what the layers from here down account for together. It
	// exceeds MeanUS when a re-run inner layer outlasted its caller.
	TreeSelfMeanUS float64 `json:"tree_self_mean_us"`
}

// selfTimes computes the per-layer self-time table, indexed by layer.
func (t *tracer) selfTimes() [numLayers]layerStat {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	tree := make([]int64, len(t.spans))
	var n [numLayers]int
	var dur, selfSum, treeSum [numLayers]int64
	// A child is begun after its parent, so its index is larger: walking
	// backwards completes every subtree before its root is read.
	for i := len(t.spans) - 1; i >= 0; i-- {
		s := t.spans[i]
		tree[i] += max(self[i], 0)
		if s.parent >= 0 {
			tree[s.parent] += tree[i]
		}
		n[s.layer]++
		dur[s.layer] += s.end - s.start
		selfSum[s.layer] += max(self[i], 0)
		treeSum[s.layer] += tree[i]
	}
	var table [numLayers]layerStat
	for l := range table {
		table[l].Layer = layerNames[l]
		if n[l] > 0 {
			per := 1 / float64(n[l]) / 1e3
			table[l] = layerStat{layerNames[l], n[l], float64(dur[l]) * per, float64(selfSum[l]) * per, float64(treeSum[l]) * per}
		}
	}
	return table
}

// write stores the trace as JSON: the layer names, the self-time table,
// and every span as [layer, parent, request, start_ns, end_ns] (a span's
// id is its index).
func (t *tracer) write(path, workload string, seed int64, table []layerStat) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	rows := make([][5]int64, len(t.spans))
	for i, s := range t.spans {
		rows[i] = [5]int64{int64(s.layer), int64(s.parent), int64(s.req), s.start, s.end}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{
		"workload": workload, "seed": seed, "layers": layerNames,
		"span_fields": []string{"layer", "parent", "request", "start_ns", "end_ns"},
		"self_time":   table, "spans": rows,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printTable writes the self-time table for a person to read.
func printTable(w io.Writer, workload string, table []layerStat) {
	fmt.Fprintf(w, "self time per layer, %s (mean per span):\n", workload)
	for _, r := range table {
		if r.Spans > 0 {
			fmt.Fprintf(w, "  %-28s %8d spans  %12.3f us  self %12.3f us\n", r.Layer, r.Spans, r.MeanUS, r.SelfMeanUS)
		}
	}
}
