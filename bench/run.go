package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	inano "inano"
	"inano/internal/atlas"
	"inano/internal/cluster"
	"inano/internal/core"
	"inano/internal/netsim"
	"inano/internal/server"
)

// The four workloads. Later issues cite these names.
const (
	libHot    = "lib_hot"
	libWide   = "lib_wide"
	serveHot  = "serve_hot"
	rollChurn = "roll_churn"
)

var workloadNames = []string{libHot, libWide, serveHot, rollChurn}

// sample is one round's value of every timing an end-to-end metric is the
// median of.
type sample struct {
	singleUS, singleCPUUS, batchPPS, loadMS, rollMS, postRollUS float64
}

// harness drives one workload. Everything runs closed-loop from one
// client: the next request is sent when the previous answer is checked.
type harness struct {
	name string
	sz   size
	p    *products
	s    *streams
	tr   *tracer // nil outside traced rounds

	opts   core.Options // of the serving client
	flat   *atlas.Flat  // day-0 serving form the serving client answers from
	client *inano.Client
	// engine is a second engine over flat with the serving client's
	// options, made for traced runs only: the layers below inano.Client
	// are priced on it, because the client's own engine cannot be reached
	// from outside.
	engine *core.Engine
	stream []query        // the workload's query stream
	reqs   []core.PairReq // stream, as StreamBatch requests
	sb     *inano.StreamBatch
	info   core.PathInfo // reused by engine.QueryInto

	server, router *fixture // in-process HTTP tiers; nil when unused
	rt             *cluster.Router
	urls           []string // /v1/query URL of each stream entry, on server
	routerURLs     []string // the same through router
	bodies         [][]byte // /v1/batch request bodies
	bodyAt         []int    // stream index of each body's first line
	arena          []byte   // response bytes of the current HTTP trial
	ends           []int    // end offset in arena of each response
	scratch        []byte   // one routed response
	// Traced trials: the stream index of each request that is traced, and
	// the innermost span recorded for it so far.
	idx []int
	ids []int32
	// handlerStart and handlerEnd are when the server handler last ran,
	// stored by its wrapper on the server's goroutine while timeHandler is
	// set; the atomics order them before this goroutine's read, which
	// follows the response.
	timeHandler              atomic.Bool
	handlerStart, handlerEnd atomic.Int64

	attempted, failed int
	// Tree-cache counters of the serving client over the single-query
	// trials: how many of treeQueries queries' tree lookups hit, missed,
	// and ran a Dijkstra.
	treeQueries                      int
	treeBuilds, treeHits, treeMisses uint64
}

func newHarness(name string, sz size, p *products, s *streams) (*harness, error) {
	h := &harness{name: name, sz: sz, p: p, s: s, opts: core.INanoOptions(), stream: s.hot}
	if name == libWide {
		h.opts.TreeCacheSize = sz.wideCache
		h.stream = s.wide
	}
	var err error
	if h.flat, err = atlas.ReadFlat(p.flat0); err != nil {
		return nil, fmt.Errorf("reading the flat atlas back: %w", err)
	}
	h.client = inano.FromFlatOptions(h.flat, h.opts)
	h.reqs = make([]core.PairReq, len(h.stream))
	for i := range h.stream {
		h.reqs[i].Src, h.reqs[i].Dst = h.stream[i].prefixes()
	}
	h.sb = h.client.Snapshot().StreamBatch(false)
	return h, nil
}

// abort counts a trial that could not run as one failed operation.
func (h *harness) abort(err error) {
	h.attempted, h.failed = h.attempted+1, h.failed+1
	fmt.Fprintln(os.Stderr, "bench:", err)
}

// check counts one answered operation against its reference.
func (h *harness) check(got, want *core.PathInfo) {
	h.attempted++
	if !samePath(got, want) {
		h.failed++
	}
}

// samePath compares an answer with its reference field for field.
func samePath(got, want *core.PathInfo) bool {
	return want != nil && got.Found == want.Found && got.RTTMS == want.RTTMS && got.LossRate == want.LossRate &&
		samePrediction(&got.Fwd, &want.Fwd) && samePrediction(&got.Rev, &want.Rev)
}

func samePrediction(got, want *core.Prediction) bool {
	return got.Found == want.Found && got.DstCluster == want.DstCluster &&
		got.LatencyMS == want.LatencyMS && got.LossRate == want.LossRate &&
		slices.Equal(got.Clusters, want.Clusters) && slices.Equal(got.ASPath, want.ASPath)
}

// warm answers every distinct pair of the hot stream once, so that the
// first timed query finds every tree it needs. lib_wide has nothing to
// warm (its cache is a twentieth of its working set from the first query
// to the last) and roll_churn loads the clients it serves from each round.
func (h *harness) warm() {
	if h.name == libWide || h.name == rollChurn {
		return
	}
	seen := make(map[[2]netsim.IP]bool)
	for i := range h.stream {
		q := &h.stream[i]
		if k := [2]netsim.IP{q.src, q.dst}; !seen[k] {
			seen[k] = true
			ans := h.client.Query(q.src, q.dst)
			h.check(&ans, q.ref[0])
			if h.engine != nil {
				src, dst := q.prefixes()
				h.engine.QueryInto(&h.info, src, dst)
			}
		}
	}
}

// round runs every timed trial of the workload once, in a fixed order.
func (h *harness) round(r int) sample {
	var s sample
	if h.name == rollChurn {
		h.churn(&s)
		return s
	}
	var ops int
	var wall, cpu time.Duration
	if h.name == serveHot {
		ops, wall, cpu = h.httpSingles(r)
	} else {
		ops, wall, cpu = h.libSingles(r)
	}
	s.singleUS, s.singleCPUUS = us(wall)/float64(ops), us(cpu)/float64(ops)
	if h.name == serveHot {
		ops, wall = h.httpBatch()
	} else {
		ops, wall = h.libBatch(r)
	}
	s.batchPPS = float64(ops) / wall.Seconds()
	h.sideRoll(&s)
	return s
}

// countTrees adds what n single queries did to c's tree cache since before.
func (h *harness) countTrees(c *inano.Client, before core.CacheStats, n int) {
	after := c.CacheStats()
	h.treeQueries += n
	h.treeBuilds += after.Builds - before.Builds
	h.treeHits += after.Hits - before.Hits
	h.treeMisses += after.Misses - before.Misses
}

// singles is the number of single queries in one trial.
func (h *harness) singles() int {
	n := h.sz.libSingles
	switch h.name {
	case libWide:
		n = h.sz.wideSingles
	case serveHot:
		n = h.sz.httpSingles
	}
	return n
}

// tracedPerTrial is how many of a traced singles trial's requests get
// spans: its last ones, so that the trial stays as long, and the traced
// requests as warm, as the untraced trial they are compared with, while
// the trace of many rounds still fits in memory.
const tracedPerTrial = 1024

// libSingles times single queries through inano.Client.Query.
func (h *harness) libSingles(r int) (ops int, wall, cpu time.Duration) {
	n := h.singles()
	first, from := r*n%len(h.stream), max(n-tracedPerTrial, 0)
	h.idx, h.ids = h.idx[:0], h.ids[:0]
	defer h.countTrees(h.client, h.client.CacheStats(), n)
	cpu0, t0 := cpuNow(), time.Now()
	for k, i := 0, first; k < n; k++ {
		q := &h.stream[i]
		tr := h.tr.from(k, from)
		tr.request()
		sp := tr.begin(layerClientQuery, -1)
		ans := h.client.Query(q.src, q.dst)
		tr.end(sp)
		h.check(&ans, q.ref[0])
		if tr != nil {
			h.idx, h.ids = append(h.idx, i), append(h.ids, sp)
		}
		if i++; i == len(h.stream) {
			i = 0
		}
	}
	wall, cpu = time.Since(t0), cpuNow()-cpu0
	if h.tr != nil {
		h.replayBelowClient()
	}
	return n, wall, cpu
}

// replayBelowClient runs the layers under inano.Client.Query again on the
// traced requests h.idx and records them as descendants of the client
// spans h.ids (which it overwrites). Each layer gets a pass of its own,
// after one unrecorded pass that brings the second engine's trees into
// the processor's caches, so that it runs as warm as the loop it is
// compared with.
func (h *harness) replayBelowClient() {
	for _, i := range h.idx {
		src, dst := h.stream[i].prefixes()
		h.engine.QueryInto(&h.info, src, dst)
	}
	for k, i := range h.idx {
		src, dst := h.stream[i].prefixes()
		sp := h.tr.begin(layerEngineQuery, h.ids[k])
		h.engine.QueryInto(&h.info, src, dst)
		h.tr.end(sp)
		h.ids[k] = sp
	}
	for k, i := range h.idx {
		src, dst := h.stream[i].prefixes()
		for _, p := range [2]netsim.Prefix{src, dst} {
			c := h.tr.begin(layerClusterOf, h.ids[k])
			cl, _ := h.flat.ClusterOf(p)
			h.tr.end(c)
			sink += int(cl)
		}
	}
}

// libBatch times StreamBatch windows: 1 024 pairs each, or lib_wide's one
// smaller window (each of its pairs builds a tree).
func (h *harness) libBatch(r int) (pairs int, wall time.Duration) {
	win, n := core.DefaultStreamWindow, h.sz.libWindows
	if h.name == libWide {
		win, n = h.sz.wideWindow, 1
	}
	slots := len(h.reqs) / win
	t0 := time.Now()
	for k := 0; k < n; k++ {
		at := (r*n + k) % slots * win
		h.tr.request()
		sp := h.tr.begin(layerStreamBatch, -1)
		infos, _, err := h.sb.Run(context.Background(), h.reqs[at:at+win])
		h.tr.end(sp)
		if err != nil {
			h.attempted, h.failed = h.attempted+win, h.failed+win
			continue
		}
		for j := range infos {
			h.check(&infos[j], h.stream[at+j].ref[0])
		}
	}
	return n * win, time.Since(t0)
}

// loadClient decodes the day-0 .bin into a fresh client and asks it one
// query: load_ms, the time from bytes in memory to a first answer.
func (h *harness) loadClient() (*inano.Client, time.Duration, error) {
	first := &h.s.popDests[0]
	h.tr.request()
	t0 := time.Now()
	trial := h.tr.begin(layerLoadTrial, -1)
	sp := h.tr.begin(layerLoad, trial)
	c, err := inano.Load(bytes.NewReader(h.p.bin0))
	h.tr.end(sp)
	if err != nil {
		return nil, 0, fmt.Errorf("loading the day-0 atlas: %w", err)
	}
	ans := c.Query(first.src, first.dst)
	h.tr.end(trial)
	d := time.Since(t0)
	h.check(&ans, first.ref[0])
	if h.tr != nil {
		c := h.tr.begin(layerDecode, sp)
		a, err := atlas.Decode(bytes.NewReader(h.p.bin0))
		h.tr.end(c)
		if err != nil {
			return nil, 0, err
		}
		h.priceCompile(a, sp)
	}
	// Warm every popular destination's tree, and every source's with them.
	for _, qs := range [][]query{h.s.popDests, h.s.popular[:min(h.sz.warmQueries, len(h.s.popular))]} {
		for i := range qs {
			ans := c.Query(qs[i].src, qs[i].dst)
			h.check(&ans, qs[i].ref[0])
		}
	}
	return c, d, nil
}

// priceCompile records atlas.Compile and core.NewFromFlat over a as
// children of parent: the two steps Load and ApplyDelta share.
func (h *harness) priceCompile(a *atlas.Atlas, parent int32) {
	c := h.tr.begin(layerCompile, parent)
	f := atlas.Compile(a)
	h.tr.end(c)
	c = h.tr.begin(layerNewEngine, parent)
	core.NewFromFlat(f, core.INanoOptions())
	h.tr.end(c)
}

// roll applies the day 0 -> 1 delta to c and asks one query of the new
// day: roll_pause_ms, the time from delta bytes in hand to a day-1 answer.
func (h *harness) roll(c *inano.Client) (time.Duration, error) {
	first := &h.s.popDests[0]
	h.tr.request()
	t0 := time.Now()
	trial := h.tr.begin(layerRollTrial, -1)
	sp := h.tr.begin(layerApplyDelta, trial)
	err := c.ApplyDelta(bytes.NewReader(h.p.delta))
	h.tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("applying the delta: %w", err)
	}
	ans := c.Query(first.src, first.dst)
	h.tr.end(trial)
	d := time.Since(t0)
	h.check(&ans, first.ref[1])
	if h.tr != nil {
		c := h.tr.begin(layerDecodeDelta, sp)
		dd, err := atlas.DecodeDelta(bytes.NewReader(h.p.delta))
		h.tr.end(c)
		if err != nil {
			return 0, err
		}
		c = h.tr.begin(layerClone, sp)
		next := h.p.day0.Clone()
		h.tr.end(c)
		c = h.tr.begin(layerDeltaApply, sp)
		next.Apply(dd)
		h.tr.end(c)
		h.priceCompile(next, sp)
	}
	return d, nil
}

// postRoll times the first hot singles after a roll, on an engine whose
// tree cache the roll emptied.
func (h *harness) postRoll(c *inano.Client) (usPerQuery float64) {
	n := h.sz.postRoll
	t0 := time.Now()
	for i := 0; i < n; i++ {
		q := &h.s.popular[i%len(h.s.popular)]
		ans := c.Query(q.src, q.dst)
		h.check(&ans, q.ref[1])
	}
	return us(time.Since(t0)) / float64(n)
}

// sideRoll is the roll trial of the three workloads that do not roll
// their serving client: load, warm, roll and post-roll singles on a
// client of its own, with nothing else running.
func (h *harness) sideRoll(s *sample) {
	runtime.GC() // every roll trial starts from a collected heap
	c, load, err := h.loadClient()
	if err == nil {
		var pause time.Duration
		if pause, err = h.roll(c); err == nil {
			s.loadMS, s.rollMS = ms(load), ms(pause)
			s.postRollUS = h.postRoll(c)
			return
		}
	}
	h.abort(err)
}

// churn is roll_churn's round: the roll trial is the serving client, with
// one reader goroutine asking it hot singles (first roll) or running
// StreamBatch windows on a snapshot pinned before the roll (second roll,
// on a second fresh client) while this goroutine applies the delta.
//
// What a caller of Query sees of a roll is how long one answer took, so
// single_us is here the reader's longest wait for an answer. The singles
// reader's lead-in is several times the roll's length, so that
// single_cpu_us, the process's CPU time over the reader's queries, is the
// queries' and not the roll's again under another name.
func (h *harness) churn(s *sample) {
	runtime.GC()
	c, load, err := h.loadClient()
	if err != nil {
		h.abort(err)
		return
	}
	var pause time.Duration
	rd := h.underRead(h.sz.churnSingles, func(i int) (ops, failed int) {
		q := &h.s.popular[i%len(h.s.popular)]
		ans := c.Query(q.src, q.dst)
		// The reader cannot tell which day answered a query in flight
		// during the swap; either day's reference is a right answer.
		if !samePath(&ans, q.ref[0]) && !samePath(&ans, q.ref[1]) {
			failed = 1
		}
		return 1, failed
	}, func() { pause, err = h.roll(c) })
	if err != nil {
		h.abort(err)
		return
	}
	s.loadMS, s.rollMS = ms(load), ms(pause)
	s.singleUS, s.singleCPUUS = us(rd.stall), us(rd.cpu)/float64(rd.ops)
	// The cache the reader met is gone with the old engine; roll_churn's
	// tree counters are the new engine's, over the post-roll singles.
	before := c.CacheStats()
	s.postRollUS = h.postRoll(c)
	h.countTrees(c, before, h.sz.postRoll)

	runtime.GC()
	c2, _, err := h.loadClient()
	if err != nil {
		h.abort(err)
		return
	}
	sb := c2.Snapshot().StreamBatch(false)
	win := min(core.DefaultStreamWindow, len(h.s.popular))
	reqs := make([]core.PairReq, win)
	for i := range reqs {
		reqs[i].Src, reqs[i].Dst = h.s.popular[i].prefixes()
	}
	rd = h.underRead(h.sz.churnPairs, func(int) (ops, failed int) {
		infos, _, err := sb.Run(context.Background(), reqs)
		if err != nil {
			return win, win
		}
		for j := range infos {
			if !samePath(&infos[j], h.s.popular[j].ref[0]) {
				failed++
			}
		}
		return win, failed
	}, func() { _, err = h.roll(c2) })
	if err != nil {
		h.abort(err)
		return
	}
	s.batchPPS = float64(rd.ops) / rd.elapsed.Seconds()
}

// reading is what one reader goroutine did beside a write.
type reading struct {
	ops, failed int
	elapsed     time.Duration // from before its first operation to after its last
	cpu         time.Duration // of the whole process meanwhile, the write's included
	stall       time.Duration // its longest single call of read
}

// underRead runs write on this goroutine while one reader goroutine calls
// read again and again. The reader first does lead operations with write
// not yet started; it is told to stop when write returns, so that the next
// trial meets what the write left, and is waited for.
func (h *harness) underRead(lead int, read func(i int) (ops, failed int), write func()) reading {
	var written atomic.Bool
	led := make(chan struct{})
	done := make(chan reading, 1) // the reader's one send never blocks
	go func() {
		var res reading
		leading := true
		cpu0, t0 := cpuNow(), time.Now()
		last := t0
		for i := 0; !written.Load(); i++ {
			ops, failed := read(i)
			now := time.Now()
			res.stall, last = max(res.stall, now.Sub(last)), now
			res.ops, res.failed = res.ops+ops, res.failed+failed
			if leading && res.ops >= lead {
				leading = false
				close(led)
			}
		}
		res.elapsed, res.cpu = last.Sub(t0), cpuNow()-cpu0
		done <- res
	}()
	<-led
	write()
	written.Store(true)
	res := <-done
	h.attempted, h.failed = h.attempted+res.ops, h.failed+res.failed
	return res
}

// fixture is an HTTP tier hosted in the harness process on loopback TCP,
// with the one keep-alive client that talks to it. A spawned daemon's
// latency did not repeat within a tenth on the measuring box; this does.
type fixture struct {
	hs     *http.Server
	served chan error
	hc     *http.Client
	base   string
}

func serve(handler http.Handler) (*fixture, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &fixture{
		hs:     &http.Server{Handler: handler},
		served: make(chan error, 1),
		hc:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		base:   "http://" + ln.Addr().String(),
	}
	go func() { f.served <- f.hs.Serve(ln) }()
	return f, nil
}

// close stops the server and waits for its accept loop to end.
func (f *fixture) close() {
	if f == nil {
		return
	}
	f.hc.CloseIdleConnections()
	f.hs.Close()
	<-f.served
}

// do sends one request and appends the response body to buf. Anything but
// a 200 is an error.
func (f *fixture) do(req *http.Request, buf []byte) ([]byte, error) {
	resp, err := f.hc.Do(req)
	if err != nil {
		return buf, err
	}
	return drain(resp, buf)
}

// drain appends the rest of resp's body to buf and closes it.
func drain(resp *http.Response, buf []byte) ([]byte, error) {
	defer resp.Body.Close()
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := resp.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return buf, err
		}
	}
	if resp.StatusCode != http.StatusOK {
		return buf, fmt.Errorf("%s %s: status %d", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode)
	}
	return buf, nil
}

// firstByte posts body and returns how long the first byte of the
// response took to arrive; the rest of the response is appended to buf.
func (f *fixture) firstByte(path string, body, buf []byte) (time.Duration, []byte, error) {
	req, err := f.newPost(path, body)
	if err != nil {
		return 0, buf, err
	}
	t := time.Now()
	resp, err := f.hc.Do(req)
	if err != nil {
		return 0, buf, err
	}
	n, err := resp.Body.Read(buf[:1])
	d := time.Since(t)
	if err != nil && err != io.EOF {
		resp.Body.Close()
		return 0, buf, err
	}
	buf, err = drain(resp, buf[:n])
	return d, buf, err
}

func (f *fixture) get(url string, buf []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return buf, err
	}
	return f.do(req, buf)
}

func (f *fixture) newPost(path string, body []byte) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodPost, f.base+path, bytes.NewReader(body))
	if err == nil {
		req.Header.Set("Content-Type", "application/x-ndjson")
	}
	return req, err
}

func (f *fixture) post(path string, body, buf []byte) ([]byte, error) {
	req, err := f.newPost(path, body)
	if err != nil {
		return buf, err
	}
	return f.do(req, buf)
}

// startServer hosts server.New(...).Handler() over the serving client and
// prepares the stream's request URLs and batch bodies.
func (h *harness) startServer() error {
	inner := server.New(server.Config{Client: h.client}).Handler()
	var err error
	h.server, err = serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h.timeHandler.Load() {
			h.handlerStart.Store(sinceEpoch())
			defer func() { h.handlerEnd.Store(sinceEpoch()) }()
		}
		inner.ServeHTTP(w, r)
	}))
	if err != nil {
		return fmt.Errorf("starting the in-process server: %w", err)
	}
	h.urls = queryURLs(h.server.base, h.stream)
	for k := 0; k < h.sz.httpStreams; k++ {
		at := k * h.sz.httpLines % (len(h.stream) - h.sz.httpLines + 1)
		h.bodies = append(h.bodies, batchBody(h.stream[at:at+h.sz.httpLines], true))
		h.bodyAt = append(h.bodyAt, at)
	}
	return nil
}

func queryURLs(base string, qs []query) []string {
	urls := make([]string, len(qs))
	for i := range qs {
		urls[i] = fmt.Sprintf("%s/v1/query?src=%s&dst=%s", base, qs[i].src, qs[i].dst)
	}
	return urls
}

// batchBody renders queries as /v1/batch request lines: the canonical form
// the server's fast parser accepts, or the same pairs with the fields
// swapped, which only its generic JSON path reads.
func batchBody(qs []query, canonical bool) []byte {
	var b bytes.Buffer
	for i := range qs {
		if canonical {
			fmt.Fprintf(&b, "{\"src\":\"%s\",\"dst\":\"%s\"}\n", qs[i].src, qs[i].dst)
		} else {
			fmt.Fprintf(&b, "{\"dst\":\"%s\",\"src\":\"%s\"}\n", qs[i].dst, qs[i].src)
		}
	}
	return b.Bytes()
}

// wireAnswer is a /v1/query response or a /v1/batch response line.
type wireAnswer struct {
	Src      string       `json:"src"`
	Dst      string       `json:"dst"`
	Found    bool         `json:"found"`
	RTTMS    float64      `json:"rtt_ms"`
	LossRate float64      `json:"loss_rate"`
	FwdMS    float64      `json:"fwd_ms"`
	RevMS    float64      `json:"rev_ms"`
	FwdAS    []netsim.ASN `json:"fwd_as_path"`
	RevAS    []netsim.ASN `json:"rev_as_path"`
	Day      int          `json:"day"`
	Error    string       `json:"error"`
}

// checkWire counts one HTTP answer against its reference: every field the
// wire form carries must equal the reference's. withPaths is false for
// batch lines, which never carry AS paths.
func (h *harness) checkWire(raw []byte, q *query, withPaths bool) {
	h.attempted++
	want := q.ref[0]
	var a wireAnswer
	ok := json.Unmarshal(raw, &a) == nil && a.Error == "" && a.Day == 0 &&
		a.Src == q.src.String() && a.Dst == q.dst.String() &&
		a.Found == want.Found && a.RTTMS == want.RTTMS && a.LossRate == want.LossRate &&
		a.FwdMS == want.Fwd.LatencyMS && a.RevMS == want.Rev.LatencyMS
	if ok && withPaths {
		ok = slices.Equal(a.FwdAS, want.Fwd.ASPath) && slices.Equal(a.RevAS, want.Rev.ASPath)
	}
	if !ok {
		h.failed++
	}
}

// httpSingles times GET /v1/query round trips on one keep-alive
// connection. Response bytes are kept and checked after the clock stops.
func (h *harness) httpSingles(r int) (ops int, wall, cpu time.Duration) {
	n := h.singles()
	first, from := r*n%len(h.stream), max(n-tracedPerTrial, 0)
	h.arena, h.ends, h.idx, h.ids = h.arena[:0], h.ends[:0], h.idx[:0], h.ids[:0]
	if h.tr != nil {
		for k := from; k < n; k++ {
			h.idx = append(h.idx, (first+k)%len(h.stream))
		}
		h.routedPass()
	}
	defer h.countTrees(h.client, h.client.CacheStats(), n)
	cpu0, t0 := cpuNow(), time.Now()
	for k, i := 0, first; k < n; k++ {
		tr := h.tr.from(k, from)
		sp := int32(-1)
		if tr != nil {
			sp = tr.begin(layerHTTP, h.ids[k-from])
		}
		at := len(h.arena)
		var err error
		h.arena, err = h.server.get(h.urls[i], h.arena)
		tr.end(sp)
		if err != nil {
			h.arena = h.arena[:at] // the empty body fails the check below
		}
		h.ends = append(h.ends, len(h.arena))
		if tr != nil {
			h.ids[k-from] = h.handlerSpan(layerHandler, sp)
		}
		if i++; i == len(h.stream) {
			i = 0
		}
	}
	wall, cpu = time.Since(t0), cpuNow()-cpu0
	for k, at := 0, 0; k < n; k++ {
		h.checkWire(h.arena[at:h.ends[k]], &h.stream[(first+k)%len(h.stream)], true)
		at = h.ends[k]
	}
	if h.tr != nil {
		for k, i := range h.idx {
			q := &h.stream[i]
			c := h.tr.begin(layerClientQuery, h.ids[k])
			ans := h.client.Query(q.src, q.dst)
			h.tr.end(c)
			h.check(&ans, q.ref[0])
			h.ids[k] = c
		}
		h.replayBelowClient()
	}
	return n, wall, cpu
}

// routedPass sends the traced requests h.idx through the router, before
// the direct round trips they are the logical parents of, and leaves their
// spans in h.ids. The server handler is not timed for them: that hop is
// the router's to account for.
func (h *harness) routedPass() {
	h.timeHandler.Store(false)
	for _, i := range h.idx {
		h.tr.request()
		sp := h.tr.begin(layerRouter, -1)
		var err error
		h.scratch, err = h.router.get(h.routerURLs[i], h.scratch[:0])
		h.tr.end(sp)
		if err != nil {
			h.scratch = h.scratch[:0]
		}
		h.checkWire(h.scratch, &h.stream[i], true)
		h.ids = append(h.ids, sp)
	}
	h.timeHandler.Store(true)
}

// handlerSpan records the server handler's run inside the round trip that
// just ended as a child span of it.
func (h *harness) handlerSpan(layer uint8, roundTrip int32) int32 {
	return h.tr.add(layer, roundTrip, h.handlerStart.Load(), h.handlerEnd.Load())
}

// httpBatch times streamed POST /v1/batch requests of canonical NDJSON
// lines. Each response is read whole on the clock and checked line by
// line off it.
func (h *harness) httpBatch() (pairs int, wall time.Duration) {
	for k, body := range h.bodies {
		h.tr.request()
		t0 := time.Now()
		sp := h.tr.begin(layerHTTPBatch, -1)
		var err error
		h.arena, err = h.server.post("/v1/batch", body, h.arena[:0])
		h.tr.end(sp)
		wall += time.Since(t0)
		if h.tr != nil {
			h.handlerSpan(layerBatchHandler, sp)
		}
		pairs += h.sz.httpLines
		h.checkBatch(h.arena, err, h.stream[h.bodyAt[k]:h.bodyAt[k]+h.sz.httpLines])
	}
	return pairs, wall
}

// checkBatch counts a batch response against the queries it answers, one
// operation per request line; a missing line is a failed operation.
func (h *harness) checkBatch(resp []byte, err error, qs []query) {
	ls := lines(resp)
	if err != nil || len(ls) != len(qs) {
		h.attempted, h.failed = h.attempted+len(qs), h.failed+len(qs)
		return
	}
	for j := range qs {
		h.checkWire(ls[j], &qs[j], false)
	}
}
