package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	cq := r.NewCounter("http_requests_total", "Total HTTP requests.", `handler="query"`)
	cb := r.NewCounter("http_requests_total", "Total HTTP requests.", `handler="batch"`)
	g := r.NewGauge("inflight_requests", "Requests currently being served.", "")
	r.NewGaugeFunc("atlas_day", "Measurement day of the serving atlas.", "", func() float64 { return 7 })

	cq.Inc()
	cq.Add(2)
	cb.Inc()
	g.Set(5)
	g.Dec()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP http_requests_total Total HTTP requests.",
		"# TYPE http_requests_total counter",
		`http_requests_total{handler="query"} 3`,
		`http_requests_total{handler="batch"} 1`,
		"# TYPE inflight_requests gauge",
		"inflight_requests 4",
		"atlas_day 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One HELP/TYPE block per family, even with two series.
	if n := strings.Count(out, "# TYPE http_requests_total counter"); n != 1 {
		t.Errorf("family header written %d times, want 1", n)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("latency_seconds", "Request latency.", "", []float64{0.01, 0.1, 1})
	for i := 0; i < 50; i++ {
		h.Observe(0.005) // -> le=0.01
	}
	for i := 0; i < 40; i++ {
		h.Observe(0.05) // -> le=0.1
	}
	for i := 0; i < 10; i++ {
		h.Observe(5) // -> +Inf
	}

	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	wantSum := 50*0.005 + 40*0.05 + 10*5.0
	if math.Abs(h.Sum()-wantSum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`latency_seconds_bucket{le="0.01"} 50`,
		`latency_seconds_bucket{le="0.1"} 90`,
		`latency_seconds_bucket{le="1"} 90`,
		`latency_seconds_bucket{le="+Inf"} 100`,
		"latency_seconds_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// The median falls in the first bucket, p90 at the 0.1 boundary, p99
	// beyond the last bound (clamped to it).
	if q := h.Quantile(0.5); q <= 0 || q > 0.01 {
		t.Errorf("p50 = %v, want in (0, 0.01]", q)
	}
	if q := h.Quantile(0.9); math.Abs(q-0.1) > 1e-9 {
		t.Errorf("p90 = %v, want 0.1", q)
	}
	if q := h.Quantile(0.99); q != 1 {
		t.Errorf("p99 = %v, want clamped to 1", q)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("empty_seconds", "Empty histogram.", "", nil)
	if q := h.Quantile(0.99); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("h", "h", "", nil)
	c := r.NewCounter("c", "c", "")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i%100) / 1000)
				c.Inc()
			}
		}(g)
	}
	// Render concurrently with observation to exercise the lock-free reads.
	for i := 0; i < 20; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("counter = %d, histogram count = %d, want 8000", c.Value(), h.Count())
	}
}

func TestDuplicateSeriesPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup", "d", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate series did not panic")
		}
	}()
	r.NewCounter("dup", "d", "")
}

// TestWriteJSONAgreesWithPrometheus: the JSON object and the Prometheus
// exposition are two renderings of one registry, series for series and in
// the same order — each key is a series' name with its labels, a scalar's
// value is the exposition's, and a histogram carries the exposition's
// count and sum.
func TestWriteJSONAgreesWithPrometheus(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("req_total", "Requests.", `handler="query"`).Add(3)
	r.NewGauge("inflight", "In flight.", "").Set(-2)
	h := r.NewHistogram("latency_seconds", "Latency.", `handler="query"`, []float64{0.01, 0.1})
	for _, v := range []float64{0.005, 0.05, 0.05, 3} {
		h.Observe(v)
	}
	r.NewHistogram("size_bytes", "Size.", "", []float64{10}).Observe(4)
	r.NewCounter("req_total", "Requests.", `handler="batch"`).Inc()
	r.NewGaugeFunc("ratio", "A ratio.", "", func() float64 { return 0.375 })
	r.NewCounterFunc("evicted_total", "Evictions.", "", func() float64 { return 1e16 })

	var js, prom strings.Builder
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}

	// The exposition's series in order, and its sample lines by name.
	hist := map[string]bool{}
	samples := map[string]string{}
	var want []string
	for _, line := range strings.Split(prom.String(), "\n") {
		if typ, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(typ, " ")
			hist[name] = kind == "histogram"
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, _ := strings.Cut(line, " ")
		samples[key] = val
		name, labels := splitKey(key)
		if base, ok := strings.CutSuffix(name, "_count"); ok && hist[base] {
			want = append(want, base+labels)
		} else if !hist[strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum")] {
			want = append(want, key)
		}
	}

	dec := json.NewDecoder(strings.NewReader(js.String()))
	dec.UseNumber()
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("WriteJSON does not open an object: %v %v\n%s", tok, err, js.String())
	}
	var got []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("%v\n%s", err, js.String())
		}
		key := tok.(string)
		got = append(got, key)
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("%s: %v\n%s", key, err, js.String())
		}
		m, isHist := v.(map[string]any)
		if !isHist {
			if fmt.Sprint(v) != samples[key] {
				t.Errorf("%s = %v, exposition says %q", key, v, samples[key])
			}
			continue
		}
		name, labels := splitKey(key)
		for _, part := range []string{"count", "sum"} {
			if p := samples[name+"_"+part+labels]; fmt.Sprint(m[part]) != p {
				t.Errorf("%s %s = %v, exposition says %q", key, part, m[part], p)
			}
		}
		for _, q := range []string{"p50", "p90", "p99"} {
			if _, ok := m[q].(json.Number); !ok {
				t.Errorf("%s %s = %v, want a number", key, q, m[q])
			}
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("JSON series\n%v\nexposition series\n%v", got, want)
	}
}

// splitKey cuts a series key into its name and its braced labels ("" for
// none).
func splitKey(key string) (name, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i], key[i:]
	}
	return key, ""
}

// TestWriteJSONNonFinite: JSON has no NaN or infinity, so a gauge that
// reads one renders as null and the object around it stays whole.
func TestWriteJSONNonFinite(t *testing.T) {
	r := NewRegistry()
	r.NewGaugeFunc("nan", "NaN.", "", math.NaN)
	r.NewGaugeFunc("inf", "Inf.", "", func() float64 { return math.Inf(-1) })
	r.NewGauge("ok", "Fine.", "").Set(7)
	r.NewHistogram("h", "Histogram.", "", nil).Observe(math.Inf(1))
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &got); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, sb.String())
	}
	if v, ok := got["nan"]; !ok || v != nil {
		t.Errorf("nan = %v (present %v), want null", v, ok)
	}
	if v, ok := got["inf"]; !ok || v != nil {
		t.Errorf("inf = %v (present %v), want null", v, ok)
	}
	if got["ok"] != 7.0 {
		t.Errorf("ok = %v, want 7", got["ok"])
	}
	if h := got["h"].(map[string]any); h["count"] != 1.0 || h["sum"] != nil {
		t.Errorf("h = %v, want count 1 and a null sum", h)
	}
	// An empty registry is an empty object.
	sb.Reset()
	if err := NewRegistry().WriteJSON(&sb); err != nil || sb.String() != "{}\n" {
		t.Errorf("empty registry rendered %q, %v", sb.String(), err)
	}
}

// TestSampledReadsOncePerRender counts the reads of a source that five
// series draw on: one a render, in either format and with renders racing,
// and every series of a render shows the same reading.
func TestSampledReadsOncePerRender(t *testing.T) {
	r := NewRegistry()
	var outputs sync.Map // what each render wrote
	n := 0               // reads of the source
	src := Sampled(r, func() int { n++; return n })
	for i := range 5 {
		r.NewGaugeFunc(fmt.Sprintf("g%d", i), "A reading.", "", func() float64 { return float64(src()) })
	}
	const renders = 40
	var wg sync.WaitGroup
	for i := range renders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sb strings.Builder
			write := r.WritePrometheus
			if i%2 == 1 {
				write = r.WriteJSON
			}
			if err := write(&sb); err != nil {
				t.Error(err)
			}
			outputs.Store(sb.String(), true)
		}()
	}
	wg.Wait()
	if n != renders {
		t.Fatalf("%d renders read the source %d times, want once each", renders, n)
	}
	outputs.Range(func(out, _ any) bool {
		var got map[string]float64
		if err := json.Unmarshal([]byte(out.(string)), &got); err != nil {
			got = map[string]float64{}
			for _, line := range strings.Split(out.(string), "\n") {
				var name string
				var v float64
				if _, err := fmt.Sscanf(line, "%s %g", &name, &v); err == nil && !strings.HasPrefix(line, "#") {
					got[name] = v
				}
			}
		}
		for i := 1; i < 5; i++ {
			if got[fmt.Sprintf("g%d", i)] != got["g0"] {
				t.Fatalf("one render shows two readings: %v", got)
			}
		}
		return true
	})
}
