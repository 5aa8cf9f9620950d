package analysis

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	inano "inano"
	"inano/internal/cluster"
	"inano/internal/feedback"
	"inano/internal/netsim"
	"inano/internal/server"
	"inano/sim"
)

// TestDaemonMetricsDocumented is the runtime half of MetricDoc, which can
// check only names that are constants at the registration site: it builds
// an inanod server with observation ingest on (so every optional family
// registers) and an inano-router, renders both registries, and fails on
// any family docs/api.md does not name. It also holds each daemon's two
// renderings to one list: every family on /metrics has a key on
// /debug/stats, and every key there is a series of a /metrics family.
func TestDaemonMetricsDocumented(t *testing.T) {
	documented, err := documentedMetrics(filepath.Join("..", "..", MetricsDocFile))
	if err != nil {
		t.Fatal(err)
	}
	w := sim.NewWorld(sim.Tiny, 1)
	vps := w.VantagePoints(4)
	a := w.Measure(sim.CampaignOptions{Day: 0, VPs: vps, Targets: append(w.EdgePrefixes(), vps...)}).BuildAtlas()
	srv := server.New(server.Config{Client: inano.FromAtlas(a), Aggregator: feedback.NewAggregator()})
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Nodes:     []string{"http://127.0.0.1:1"},
		ClusterOf: func(netsim.Prefix) (cluster.ClusterID, bool) { return 0, false },
	})
	if err != nil {
		t.Fatal(err)
	}
	get := func(h http.Handler, path string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	for daemon, h := range map[string]http.Handler{"inanod": srv.Handler(), "inano-router": rt.Handler()} {
		families := map[string]bool{}
		for _, line := range strings.Split(get(h, "/metrics"), "\n") {
			if typ, ok := strings.CutPrefix(line, "# TYPE "); ok {
				name, _, _ := strings.Cut(typ, " ")
				families[name] = true
				if !documented[name] {
					t.Errorf("%s exposes %s, which %s does not document", daemon, name, MetricsDocFile)
				}
			}
		}
		var stats map[string]any
		if err := json.Unmarshal([]byte(get(h, "/debug/stats")), &stats); err != nil {
			t.Fatalf("%s /debug/stats: %v", daemon, err)
		}
		keyed := map[string]bool{}
		for key := range stats {
			name, _, _ := strings.Cut(key, "{")
			if !families[name] {
				t.Errorf("%s /debug/stats has %s, which is no series on /metrics", daemon, key)
			}
			keyed[name] = true
		}
		for name := range families {
			if !keyed[name] {
				t.Errorf("%s /metrics family %s has no key on /debug/stats", daemon, name)
			}
		}
		if len(families) < 10 {
			t.Errorf("%s exposes only %d families", daemon, len(families))
		}
	}
}
