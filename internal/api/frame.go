package api

import (
	"net/http"
	"path"
	"time"

	"inano/internal/metrics"
)

// Frame is a daemon's front door: it mounts the daemon's endpoints, and its
// registry as /metrics and /debug/stats, and gives every request the same
// entry — counted, timed, held in an in-flight gauge, and counted as an
// error and logged when its handler returns one or panics.
type Frame struct {
	mux      *http.ServeMux
	inflight *metrics.Gauge
}

// Endpoint is a path a Frame mounts, whose last element names its series,
// and its handler, which returns the error it answered with (a Refusal's
// Write returns the refusal), nil when it succeeded.
type Endpoint struct {
	Path  string
	Serve func(http.ResponseWriter, *http.Request) error
}

// NewFrame mounts eps and then /metrics and /debug/stats over reg, in which
// it registers family_inflight and, per endpoint in that order,
// family_requests_total, family_errors_total and family_request_seconds
// labelled handler="<name>". It logs a failed request through logf as
// "<logPrefix>: <name>: <error>".
func NewFrame(reg *metrics.Registry, family, logPrefix string, logf func(string, ...any), eps ...Endpoint) *Frame {
	f := &Frame{
		mux:      http.NewServeMux(),
		inflight: reg.NewGauge(family+"_inflight", "Requests currently being served.", ""),
	}
	eps = append(eps,
		Endpoint{"/metrics", func(w http.ResponseWriter, r *http.Request) error {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			return reg.WritePrometheus(w)
		}},
		Endpoint{"/debug/stats", func(w http.ResponseWriter, r *http.Request) error {
			w.Header().Set("Content-Type", "application/json")
			return reg.WriteJSON(w)
		}})
	for _, ep := range eps {
		name := path.Base(ep.Path)
		labels := `handler="` + name + `"`
		requests := reg.NewCounter(family+"_requests_total", "Requests served, by endpoint.", labels)
		failed := reg.NewCounter(family+"_errors_total", "Requests that failed, by endpoint.", labels)
		latency := reg.NewHistogram(family+"_request_seconds", "Request latency, by endpoint.", labels, nil)
		f.mux.HandleFunc(ep.Path, func(w http.ResponseWriter, r *http.Request) {
			f.inflight.Inc()
			requests.Inc()
			start := time.Now()
			var err error
			// Deferred, so a handler that panics (net/http recovers it and
			// keeps serving) leaves the gauge right and counts as failed.
			panicked := true
			defer func() {
				latency.Observe(time.Since(start).Seconds())
				f.inflight.Dec()
				if panicked {
					failed.Inc()
					logf("%s: %s: handler panicked", logPrefix, name)
				} else if err != nil {
					failed.Inc()
					logf("%s: %s: %v", logPrefix, name, err)
				}
			}()
			err = ep.Serve(w, r)
			panicked = false
		})
	}
	return f
}

// ServeHTTP serves a request through the endpoint its path names.
func (f *Frame) ServeHTTP(w http.ResponseWriter, r *http.Request) { f.mux.ServeHTTP(w, r) }

// InFlight returns the number of requests being served.
func (f *Frame) InFlight() int64 { return f.inflight.Value() }
