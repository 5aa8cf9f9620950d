package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	inano "inano"
	"inano/internal/atlas"
	"inano/internal/cluster"
	"inano/internal/core"
	"inano/internal/netsim"
	"inano/internal/server"
)

// sink keeps results of timed calls alive so the compiler cannot drop
// the calls.
var sink int

// timeMS runs f reps times and returns the median run time in
// milliseconds. setup, when not nil, runs before each f, off the clock.
func timeMS(reps int, setup, f func()) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		if setup != nil {
			setup()
		}
		t := time.Now()
		f()
		ds[i] = ms(time.Since(t))
	}
	return median(ds)
}

// perOp runs f (n operations a call) once to warm up and then reps times,
// and returns the median time per operation in nanoseconds and the mean
// allocations per operation.
func perOp(reps, n int, f func()) (ns, allocs float64) {
	f() // grow reused buffers off the clock
	ds := make([]float64, reps)
	m0, _ := mallocs()
	for i := range ds {
		t := time.Now()
		f()
		ds[i] = float64(time.Since(t)) / float64(n)
	}
	m1, _ := mallocs()
	return median(ds), float64(m1-m0) / float64(reps*n)
}

// memWriter is an http.ResponseWriter that keeps the response in memory,
// for driving a handler without a connection.
type memWriter struct {
	header http.Header
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header         { return w.header }
func (w *memWriter) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *memWriter) WriteHeader(int)             {} // checkWire reads the body; an error body fails it

// startRouter puts a cluster.Router with the server as its one replica
// in front of h.server.
func (h *harness) startRouter() error {
	rt, err := cluster.NewRouter(cluster.RouterConfig{Nodes: []string{h.server.base}, ClusterOf: h.flat.ClusterOf})
	if err != nil {
		return fmt.Errorf("building the router: %w", err)
	}
	h.rt = rt
	if h.router, err = serve(rt.Handler()); err != nil {
		return fmt.Errorf("starting the in-process router: %w", err)
	}
	h.routerURLs = queryURLs(h.router.base, h.stream)
	return nil
}

// layerMetrics prices every layer by timing calls into its exported
// functions, on a harness that serves the hot stream over HTTP with the
// router in front. The set is the same whichever workload the run names;
// what differs per workload is the trace and the tree-cache counters.
func (h *harness) layerMetrics(outDir string, m map[string]float64) error {
	reps, p := h.sz.layerReps, h.p
	iNano := core.INanoOptions()
	var err error
	fail := func(e error) {
		if err == nil && e != nil {
			err = e
		}
	}

	// Off the query path: codec, compile, engine, flat file, delta.
	var buf bytes.Buffer
	m["atlas.encode_ms"] = timeMS(reps, buf.Reset, func() { fail(p.day0.Encode(&buf)) })
	m["atlas.decode_ms"] = timeMS(reps, nil, func() {
		a, e := atlas.Decode(bytes.NewReader(p.bin0))
		fail(e)
		sink += a.NumClusters
	})
	var flat *atlas.Flat
	m["atlas.compile_ms"] = timeMS(reps, nil, func() { flat = atlas.Compile(p.day0) })
	m["core.new_engine_ms"] = timeMS(reps, nil, func() { sink += core.NewFromFlat(flat, iNano).Day() })
	var loaded *inano.Client
	m["inano.load_ms"] = timeMS(reps, nil, func() {
		var e error
		loaded, e = inano.Load(bytes.NewReader(p.bin0))
		fail(e)
	})
	m["atlas.flat_write_ms"] = timeMS(reps, buf.Reset, func() { fail(atlas.WriteFlat(&buf, flat)) })
	m["atlas.flat_bytes"] = float64(len(p.flat0))
	path := filepath.Join(outDir, "atlas-"+h.name+".flat")
	fail(os.MkdirAll(outDir, 0o755))
	fail(os.WriteFile(path, p.flat0, 0o644))
	m["atlas.flat_open_ms"] = timeMS(reps, nil, func() {
		ff, e := atlas.OpenFlat(path, true)
		if fail(e); e == nil {
			sink += ff.NumEdges()
			fail(ff.Close())
		}
	})
	var delta *atlas.Delta
	m["atlas.delta_decode_ms"] = timeMS(reps, nil, func() {
		var e error
		delta, e = atlas.DecodeDelta(bytes.NewReader(p.delta))
		fail(e)
	})
	if err != nil {
		return err
	}
	var next *atlas.Atlas
	m["atlas.clone_ms"] = timeMS(reps, nil, func() { next = p.day0.Clone() })
	m["atlas.delta_apply_ms"] = timeMS(reps, func() { next = p.day0.Clone() }, func() { next.Apply(delta) })
	m["atlas.delta_entries"] = float64(delta.Entries())
	m["inano.apply_delta_ms"] = timeMS(reps, func() {
		var e error
		loaded, e = inano.Load(bytes.NewReader(p.bin0))
		fail(e)
	}, func() { fail(loaded.ApplyDelta(bytes.NewReader(p.delta))) })

	// The query path, warm: prefix search, engine, client.
	const n = 1 << 14
	qs := h.stream[:min(n, len(h.stream))]
	m["atlas.cluster_of_ns"], _ = perOp(reps, len(qs), func() {
		for i := range qs {
			cl, _ := h.flat.ClusterOf(netsim.PrefixOf(qs[i].dst))
			sink += int(cl)
		}
	})
	m["core.query_warm_ns"], m["core.allocs_per_query"] = perOp(reps, len(qs), func() {
		for i := range qs {
			src, dst := qs[i].prefixes()
			h.engine.QueryInto(&h.info, src, dst)
		}
	})
	m["inano.query_ns"], m["inano.allocs_per_query"] = perOp(reps, len(qs), func() {
		for i := range qs {
			ans := h.client.Query(qs[i].src, qs[i].dst)
			sink += len(ans.Fwd.Clusters)
		}
	})
	win := h.reqs[:min(core.DefaultStreamWindow, len(h.reqs))]
	ns, allocs := perOp(reps, 1, func() {
		infos, _, e := h.sb.Run(context.Background(), win)
		fail(e)
		sink += len(infos)
	})
	m["core.stream_window_us"], m["core.allocs_per_window"] = ns/1e3, allocs

	// The query path, cold: every query builds its destination's tree.
	// One pass over a fresh engine, whose heap growth is the trees' size.
	cold := distinctDests(h.stream, 200)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fresh := core.NewFromFlat(h.flat, iNano)
	t := time.Now()
	for _, q := range cold {
		src, dst := q.prefixes()
		fresh.QueryInto(&h.info, src, dst)
	}
	m["core.query_cold_us"] = us(time.Since(t)) / float64(len(cold))
	runtime.GC()
	runtime.ReadMemStats(&after)
	m["core.tree_kb"] = float64(after.HeapAlloc-before.HeapAlloc) / 1024 / float64(max(fresh.CacheStats().Len, 1))

	// The server: handler alone, then over loopback HTTP.
	handler := server.New(server.Config{Client: h.client}).Handler()
	reqs := make([]*http.Request, min(1024, len(h.urls)))
	for i := range reqs {
		var e error
		reqs[i], e = http.NewRequest(http.MethodGet, h.urls[i], nil)
		fail(e)
	}
	if err != nil {
		return err
	}
	w := &memWriter{header: make(http.Header)}
	ns, allocs = perOp(reps, len(reqs), func() {
		for _, r := range reqs {
			w.body.Reset()
			clear(w.header)
			handler.ServeHTTP(w, r)
		}
	})
	m["server.query_handler_us"], m["server.allocs_per_query"] = ns/1e3, allocs
	h.checkWire(w.body.Bytes(), &h.stream[len(reqs)-1], true)

	mean, p99 := h.timeGets(h.server, h.urls, reps*len(reqs))
	m["server.query_http_us"], m["server.query_http_p99_us"] = mean, p99
	routed, _ := h.timeGets(h.router, h.routerURLs, reps*len(reqs)/4)
	m["cluster.route_query_us"], m["cluster.hop_tax_us"] = routed, routed-mean

	lineQs := h.stream[:min(h.sz.httpLines, len(h.stream))]
	for _, shape := range []struct {
		metric    string
		f         *fixture
		canonical bool
	}{
		{"server.batch_fast_us_per_pair", h.server, true},
		{"server.batch_generic_us_per_pair", h.server, false},
		{"cluster.route_batch_us_per_pair", h.router, true},
	} {
		body := batchBody(lineQs, shape.canonical)
		ns, allocs = perOp(reps, len(lineQs), func() {
			var e error
			h.arena, e = shape.f.post("/v1/batch", body, h.arena[:0])
			fail(e)
		})
		m[shape.metric] = ns / 1e3
		if shape.metric == "server.batch_fast_us_per_pair" {
			m["server.allocs_per_kpair"] = allocs * 1000
		}
		h.checkBatch(h.arena, err, lineQs)
	}
	body := batchBody(lineQs, true)
	first := make([]float64, reps)
	for i := range first {
		var d time.Duration
		var e error
		d, h.arena, e = h.server.firstByte("/v1/batch", body, h.arena[:0])
		fail(e)
		first[i] = ms(d)
	}
	m["server.batch_first_line_ms"] = median(first)

	keys := make([]uint64, len(qs))
	for i := range qs {
		c, _ := h.flat.ClusterOf(netsim.PrefixOf(qs[i].dst))
		keys[i] = cluster.KeyForCluster(c)
	}
	m["cluster.ring_owner_ns"], _ = perOp(reps, len(keys), func() {
		ring := h.rt.Ring()
		for _, k := range keys {
			sink += len(ring.Owner(k))
		}
	})
	return err
}

// distinctDests returns up to n queries of qs with distinct destinations.
func distinctDests(qs []query, n int) []query {
	seen := make(map[netsim.IP]bool)
	var out []query
	for _, q := range qs {
		if !seen[q.dst] {
			seen[q.dst] = true
			if out = append(out, q); len(out) == n {
				break
			}
		}
	}
	return out
}

// timeGets times n single GETs one by one and returns their mean and
// 99th-percentile latency in microseconds. Every response is checked.
func (h *harness) timeGets(f *fixture, urls []string, n int) (mean, p99 float64) {
	ds := make([]float64, n)
	total := 0.0
	for k := range ds {
		i := k % len(urls)
		t := time.Now()
		var err error
		h.scratch, err = f.get(urls[i], h.scratch[:0])
		ds[k] = us(time.Since(t))
		total += ds[k]
		if err != nil {
			h.scratch = h.scratch[:0]
		}
		h.checkWire(h.scratch, &h.stream[i], true)
	}
	sort.Float64s(ds)
	return total / float64(n), ds[n*99/100]
}
