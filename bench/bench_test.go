package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
)

// declared is the part of BENCHMARK.json the output is held to.
type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

// TestQuickRuns runs every workload in -quick mode, untraced and traced,
// and holds the printed object to BENCHMARK.json: exactly the declared
// names, each with its declared unit, no failed operation.
func TestQuickRuns(t *testing.T) {
	d := readDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, the command's %v", names, workloadNames)
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, err := run(config{workload: w, seed: 1, quick: true, trace: trace, root: ".."})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var back result
			if err := json.Unmarshal(line, &back); err != nil {
				t.Fatalf("%s trace=%v: output does not parse: %v", w, trace, err)
			}
			if !back.Correct || back.Failed != 0 || back.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d operations failed", w, trace, back.Correct, back.Failed, back.Attempted)
			}
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			for _, m := range want {
				got, ok := back.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: declared metric %s is not printed", w, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: %s printed in %q, declared in %q", w, trace, m.Name, got.Unit, m.Unit)
				}
				if !nameOK.MatchString(m.Name) {
					t.Errorf("metric name %q breaks the contract's pattern", m.Name)
				}
				delete(back.Metrics, m.Name)
			}
			for name := range back.Metrics {
				t.Errorf("%s trace=%v: printed metric %s is not declared", w, trace, name)
			}
			if !trace {
				for _, m := range want {
					if v := res.Metrics[m.Name].Value; v <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, m.Name, v)
					}
				}
			}
		}
	}
	if _, err := os.Stat("../bench/out/trace-" + libHot + ".json"); err != nil {
		t.Errorf("the traced run left no span file: %v", err)
	}
}

// TestWorkloadsIsolate holds the workloads to what they claim: lib_hot
// never builds a tree in its timed singles, lib_wide builds one for at
// least nine queries in ten.
func TestWorkloadsIsolate(t *testing.T) {
	for w, check := range map[string]func(float64) bool{
		libHot:  func(perKQ float64) bool { return perKQ == 0 },
		libWide: func(perKQ float64) bool { return perKQ >= 900 },
	} {
		res, err := run(config{workload: w, seed: 2, quick: true, trace: true, root: ".."})
		if err != nil {
			t.Fatal(err)
		}
		if v := res.Metrics["core.tree_builds_per_kq"].Value; !check(v) {
			t.Errorf("%s: %v tree builds per thousand queries", w, v)
		}
	}
}

// TestRSSPeakReset holds rss_peak_mb to the serving phase: once what
// set-up allocated is freed and the mark set back, the mark reads below
// set-up's peak.
func TestRSSPeakReset(t *testing.T) {
	const mb = 64
	held := make([]byte, mb<<20)
	for i := 0; i < len(held); i += 4096 {
		held[i] = 1 // make the page resident
	}
	before, err := rssPeakMB()
	if err != nil {
		t.Fatal(err)
	}
	sink += int(held[len(held)-1])
	held = nil
	if err := resetRSSPeak(); err != nil {
		t.Skipf("this system does not let the mark be reset: %v", err)
	}
	after, err := rssPeakMB()
	if err != nil {
		t.Fatal(err)
	}
	if after > before-mb/2 {
		t.Errorf("high-water mark %.0f MB after the reset, %.0f MB before it with %d MB since freed", after, before, mb)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{layer: layerClientQuery, parent: -1, req: 1, start: 0, end: 100},
		{layer: layerEngineQuery, parent: 0, req: 1, start: 200, end: 270},
		{layer: layerClusterOf, parent: 1, req: 1, start: 300, end: 310},
		{layer: layerClusterOf, parent: 1, req: 1, start: 320, end: 330},
		// A re-run inner layer that outlasted its caller: the caller's self
		// time stops at zero and the tree's self time exceeds its span.
		{layer: layerClientQuery, parent: -1, req: 2, start: 400, end: 450},
		{layer: layerEngineQuery, parent: 4, req: 2, start: 500, end: 580},
	}}
	table := tr.selfTimes()
	for _, c := range []struct {
		layer            int
		spans            int
		mean, self, tree float64 // ns
	}{
		{layerClientQuery, 2, 75, 15, 90},
		{layerEngineQuery, 2, 75, 65, 75},
		{layerClusterOf, 2, 10, 10, 10},
	} {
		got := table[c.layer]
		near := func(us, ns float64) bool { return math.Abs(us*1e3-ns) < 1e-6 }
		if got.Spans != c.spans || !near(got.MeanUS, c.mean) || !near(got.SelfMeanUS, c.self) || !near(got.TreeSelfMeanUS, c.tree) {
			t.Errorf("%s: %+v, want %d spans, mean %v self %v tree %v ns", got.Layer, got, c.spans, c.mean, c.self, c.tree)
		}
	}
}
