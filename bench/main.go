// Command bench is the repository's performance ledger: one seeded world,
// four named workloads driven through the program's public functions from
// a single closed-loop client, every answer checked against a reference,
// every metric printed by name with its unit. BENCHMARK.json at the
// repository root declares it; README.md in this directory explains each
// workload and metric.
//
//	bench -workload lib_hot -seed 1 -seconds 22 -trace 0
//
// The last line of standard output is one JSON object: with -trace 0 the
// end-to-end metrics, with -trace 1 the per-layer metrics (and a span
// file under bench/out/). Run it from the repository root.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"inano/internal/core"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	root     string // repository root: where out/ goes and lines are counted
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "one of lib_hot, lib_wide, serve_hot, roll_churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the query streams")
	flag.Float64Var(&cfg.seconds, "seconds", 22, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&cfg.quick, "quick", false, "tiny world, three rounds: a smoke test, not a measurement")
	flag.StringVar(&cfg.root, "root", ".", "repository root")
	flag.Parse()
	cfg.trace = trace != 0
	if !slices.Contains(workloadNames, cfg.workload) {
		fmt.Fprintf(os.Stderr, "bench: -workload must be one of %v\n", workloadNames)
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(cfg config) (*result, error) {
	start := time.Now()
	sz := fullSize
	if cfg.quick {
		sz = quickSize
	}

	// Set-up runs the whole server-side pipeline sz.setups times and
	// reports the median, because one build's time does not repeat from
	// process to process; the artifacts must come out byte-identical.
	var p *products
	builds := make([]float64, sz.setups)
	for i := range builds {
		t := time.Now()
		q, err := buildProducts(sz)
		if err != nil {
			return nil, err
		}
		builds[i] = time.Since(t).Seconds()
		if p != nil && !(bytes.Equal(p.bin0, q.bin0) && bytes.Equal(p.delta, q.delta) && bytes.Equal(p.flat0, q.flat0)) {
			return nil, fmt.Errorf("set-up is not deterministic: build %d produced different bytes", i)
		}
		p = q
	}
	rest := time.Now()
	s := makeStreams(p, sz, cfg.seed, cfg.workload == libWide)
	h, err := newHarness(cfg.workload, sz, p, s)
	if err != nil {
		return nil, err
	}
	defer func() { h.router.close(); h.server.close() }()
	if cfg.trace {
		return traced(cfg, sz, p, s, h)
	}
	// rss_peak_mb is the serving phase's: the three builds and the
	// reference engines peak higher than anything the workloads do, and the
	// mark is set back before the serving client's trees are warmed.
	built, err := rssPeakMB()
	if err != nil {
		return nil, err
	}
	if err := resetRSSPeak(); err != nil {
		// The mark then stays the set-up's; the other nine metrics stand.
		fmt.Fprintln(os.Stderr, "bench: rss_peak_mb includes set-up: cannot reset the high-water mark:", err)
	}
	h.warm()
	if h.name == serveHot {
		if err := h.startServer(); err != nil {
			return nil, err
		}
	}
	setup := median(builds) + time.Since(rest).Seconds()
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: set-up %.2fs (builds %.2f) peaked at %.0f MB, measuring %.0fs\n",
		cfg.workload, cfg.seed, setup, builds, built, cfg.seconds)

	samples := h.rounds(cfg.seconds, sz.minRounds)
	hwm, err := rssPeakMB()
	if err != nil {
		return nil, err
	}
	// A trial of a tenth of a second or more averages the host's bursts of
	// interference, and its value over rounds has one hump: the median
	// stands for it. A roll trial's phases are single calls of a few
	// milliseconds, which one burst lengthens by a third; over rounds they
	// have two humps, and the median lands in either from run to run. The
	// tenth percentile stays in the undisturbed one. roll_churn's single_us
	// is such a call: the reader's one wait for the roll.
	single := 0.5
	if h.name == rollChurn {
		single = 0.1
	}
	over := func(q float64, f func(sample) float64) float64 { return quantile(column(samples, f), q) }
	res := h.result()
	res.Metrics = map[string]metric{
		"setup_s":             {setup, "s"},
		"load_ms":             {over(0.1, func(s sample) float64 { return s.loadMS }), "ms"},
		"single_us":           {over(single, func(s sample) float64 { return s.singleUS }), "us"},
		"single_cpu_us":       {over(0.5, func(s sample) float64 { return s.singleCPUUS }), "us"},
		"batch_pairs_per_s":   {over(0.5, func(s sample) float64 { return s.batchPPS }), "pairs/s"},
		"roll_pause_ms":       {over(0.1, func(s sample) float64 { return s.rollMS }), "ms"},
		"post_roll_single_us": {over(0.1, func(s sample) float64 { return s.postRollUS }), "us"},
		"rss_peak_mb":         {hwm, "MB"},
		"atlas_bytes":         {float64(len(p.bin0)), "bytes"},
		"delta_bytes":         {float64(len(p.delta)), "bytes"},
	}
	fmt.Fprintf(os.Stderr, "bench: %d rounds in %.1fs, %d ops, %d failed, whole run %.1fs\n",
		len(samples), time.Since(rest).Seconds(), h.attempted, h.failed, time.Since(start).Seconds())
	return res, nil
}

// rounds runs rounds until both the window is over and the fewest rounds a
// median may rest on have run.
func (h *harness) rounds(seconds float64, fewest int) []sample {
	var samples []sample
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for r := 0; r < fewest || time.Now().Before(deadline); r++ {
		if h.tr.full() {
			break
		}
		samples = append(samples, h.round(r))
	}
	return samples
}

// column picks one timing out of every round's sample.
func column(ss []sample, f func(sample) float64) []float64 {
	vs := make([]float64, len(ss))
	for i, s := range ss {
		vs[i] = f(s)
	}
	return vs
}

func (h *harness) result() *result {
	return &result{Correct: h.failed == 0 && h.attempted > 0, Attempted: h.attempted, Failed: h.failed}
}

// traced is the -trace 1 run: untraced rounds for reference, the same
// rounds again with a span around each call into a layer, then the
// per-layer timings. It reports the per-layer metrics only.
func traced(cfg config, sz size, p *products, s *streams, h *harness) (*result, error) {
	// The layers are priced on a harness that serves the hot stream over
	// HTTP behind the router: h itself when its stream is the hot one.
	h.engine = core.NewFromFlat(h.flat, h.opts)
	h.warm()
	lh := h
	if h.name == libWide || h.name == rollChurn {
		var err error
		if lh, err = newHarness(serveHot, sz, p, s); err != nil {
			return nil, err
		}
		defer func() { lh.router.close(); lh.server.close() }()
		lh.engine = core.NewFromFlat(lh.flat, lh.opts)
		lh.warm()
	}
	if err := lh.startServer(); err != nil {
		return nil, err
	}
	if err := lh.startRouter(); err != nil {
		return nil, err
	}

	plain := h.rounds(cfg.seconds/3, sz.minRounds/3)
	builds, hits, misses, queries := h.treeBuilds, h.treeHits, h.treeMisses, h.treeQueries
	h.tr = newTracer()
	spanned := h.rounds(cfg.seconds/3, sz.minRounds/3)
	tr := h.tr
	h.tr = nil

	m := make(map[string]float64)
	for k, v := range p.phases {
		m[k] = v
	}
	outDir := filepath.Join(cfg.root, "bench", "out")
	if err := lh.layerMetrics(outDir, m); err != nil {
		return nil, err
	}
	if lh != h {
		h.attempted, h.failed = h.attempted+lh.attempted, h.failed+lh.failed
	}

	table := tr.selfTimes()
	if err := tr.write(filepath.Join(outDir, "trace-"+h.name+".json"), h.name, cfg.seed, table[:]); err != nil {
		return nil, fmt.Errorf("writing the trace: %w", err)
	}
	printTable(os.Stderr, h.name, table[:])

	single := func(s sample) float64 { return s.singleUS }
	plainSingle := column(plain, single)
	gap := func(tracedUS, plainUS float64) float64 {
		if tracedUS == 0 {
			return 0 // the layer has no span on this workload
		}
		return 100 * (tracedUS - plainUS) / plainUS
	}
	outer := layerClientQuery
	if h.name == serveHot {
		outer = layerHTTP
	}
	m["core.tree_builds_per_kq"] = 1000 * float64(builds) / float64(max(queries, 1))
	m["core.tree_hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	m["harness.rounds"] = float64(len(plain))
	m["harness.traced_rounds"] = float64(len(spanned))
	m["harness.spans"] = float64(len(tr.spans))
	m["harness.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	m["harness.round_iqr_pct"] = iqrPct(plainSingle)
	m["harness.trace_overhead_pct"] = gap(median(column(spanned, single)), median(plainSingle))
	m["harness.reconcile_gap_pct"] = gap(table[outer].TreeSelfMeanUS, median(plainSingle))
	m["harness.roll_reconcile_gap_pct"] = gap(table[layerRollTrial].TreeSelfMeanUS/1e3,
		median(column(plain, func(s sample) float64 { return s.rollMS })))
	loc, err := nontestGoLOC(cfg.root, filepath.Join(cfg.root, "bench"))
	if err != nil {
		return nil, fmt.Errorf("counting lines: %w", err)
	}
	m["repo.nontest_go_loc"] = float64(loc)

	res := h.result()
	res.Metrics = make(map[string]metric, len(m))
	for k, v := range m {
		res.Metrics[k] = metric{v, layerUnit(k)}
	}
	return res, nil
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	for _, u := range [][2]string{
		{"_ms", "ms"}, {"_s", "s"}, {"_us", "us"}, {"_us_per_pair", "us"}, {"_ns", "ns"},
		{"_mb", "MB"}, {"_kb", "KB"}, {"_bytes", "bytes"}, {"_pct", "%"}, {"_ratio", "ratio"},
	} {
		if strings.HasSuffix(name, u[0]) {
			return u[1]
		}
	}
	return "count"
}
