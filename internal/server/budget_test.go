package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"testing"
)

// nopWriter is a ResponseWriter that keeps nothing: what a handler
// allocates to answer is its own.
type nopWriter struct{ h http.Header }

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nopWriter) WriteHeader(int)             {}

// TestQueryHandlerAllocBudget is the allocation gate of a warm /v1/query
// through Server.Handler().ServeHTTP: the allocations of serving a GET and
// a POST, less those of building the request, must stay within the
// budget. The budgets are what the handler cost when the gate was set; a
// change that raises one raises the price of every single query. The
// answer buffer comes from a sync.Pool, which drops some of what is put in
// it under the race detector, so the gate runs only without it.
func TestQueryHandlerAllocBudget(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("under the race detector sync.Pool drops a quarter of what is put in it")
			}
		}
	}
	f := buildFixture(t, 213)
	h := New(Config{Client: f.client, Logf: t.Logf}).Handler()
	src, dst := ipStr(f.vps[0]), ipStr(f.targets[7])
	get := fmt.Sprintf("/v1/query?src=%s&dst=%s", src, dst)
	body := fmt.Sprintf(`{"src":%q,"dst":%q}`, src, dst)
	for _, tc := range []struct {
		name   string
		budget float64
		req    func() *http.Request
	}{
		{"GET", 7, func() *http.Request { return httptest.NewRequest(http.MethodGet, get, nil) }},
		{"POST", 6, func() *http.Request {
			return httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body))
		}},
	} {
		rec := httptest.NewRecorder()
		if h.ServeHTTP(rec, tc.req()); rec.Code != http.StatusOK { // warms the trees
			t.Fatalf("%s: status %d: %s", tc.name, rec.Code, rec.Body)
		}
		w := &nopWriter{h: make(http.Header)}
		building := testing.AllocsPerRun(200, func() { tc.req() })
		serving := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, tc.req()) })
		if got := serving - building; got > tc.budget {
			t.Errorf("a warm %s /v1/query allocates %v times beyond the %v of building its request, want at most %v", tc.name, got, building, tc.budget)
		}
	}
}
