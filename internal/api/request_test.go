package api

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"
)

func TestWindowAndDeadline(t *testing.T) {
	for _, tc := range []struct {
		query   string
		window  int
		d       time.Duration // the context's deadline from now; 0 = none
		errText string
	}{
		{"", 1024, 0, ""},
		{"window=7&deadline_ms=250", 7, 250 * time.Millisecond, ""},
		{"window=65536", 65536, 0, ""},
		{"window=65537", MaxWindow, 0, ""},
		{"window=1000000000", MaxWindow, 0, ""},
		{"window=0", 0, 0, `bad window "0"`},
		{"window=-3", 0, 0, `bad window "-3"`},
		{"window=many", 0, 0, `bad window "many"`},
		{"deadline_ms=0", 1024, 0, `bad deadline_ms "0"`},
		{"deadline_ms=-1", 1024, 0, `bad deadline_ms "-1"`},
		{"deadline_ms=soon", 1024, 0, `bad deadline_ms "soon"`},
		// Past what a time.Duration holds: clamped, not wrapped to 448µs.
		{"deadline_ms=18446744073710", 1024, time.Duration(maxDeadlineMS) * time.Millisecond, ""},
	} {
		b, rf := ReadBatch(&recWriter{}, httptest.NewRequest(http.MethodPost, "/v1/batch?"+tc.query, nil), 1024)
		if (rf == nil) != (tc.errText == "") || (rf != nil && (rf.Text != tc.errText || rf.Status != http.StatusBadRequest)) {
			t.Errorf("?%s: refused %+v, want %q", tc.query, rf, tc.errText)
		}
		if rf != nil {
			continue
		}
		if b.Window != tc.window {
			t.Errorf("?%s: window %d, want %d", tc.query, b.Window, tc.window)
		}
		ctx, cancel := b.Deadline.Context(context.Background(), 0, 0)
		if at, ok := ctx.Deadline(); ok != (tc.d > 0) || (ok && (time.Until(at) > tc.d || time.Until(at) < tc.d-time.Second)) {
			t.Errorf("?%s: deadline %v (%v), want %v from now", tc.query, at, ok, tc.d)
		}
		cancel()
	}
	if b, _ := ReadBatch(&recWriter{}, httptest.NewRequest(http.MethodPost, "/v1/batch", nil), 1<<20); b.Window != MaxWindow {
		t.Errorf("a default over the cap came back as %d", b.Window)
	}
	// The daemon's own default and cap: a request without one gets the
	// default, none may ask for more than the cap, and with neither the
	// parent context itself serves.
	for _, tc := range []struct {
		query         string
		def, max, out time.Duration
	}{
		{"", 0, 0, 0},
		{"", time.Minute, 0, time.Minute},
		{"", 0, time.Minute, time.Minute},
		{"deadline_ms=5000", time.Minute, time.Hour, 5 * time.Second},
		{"deadline_ms=7200000", 0, time.Hour, time.Hour},
	} {
		q, _ := url.ParseQuery(tc.query)
		d, rf := readDeadline(q)
		if rf != nil {
			t.Fatal(rf)
		}
		ctx, cancel := d.Context(context.Background(), tc.def, tc.max)
		if at, ok := ctx.Deadline(); ok != (tc.out > 0) || (ok && (time.Until(at) > tc.out || time.Until(at) < tc.out-time.Second)) {
			t.Errorf("?%s, default %v, cap %v: deadline %v (%v), want %v from now", tc.query, tc.def, tc.max, at, ok, tc.out)
		}
		if tc.out == 0 && ctx != context.Background() {
			t.Errorf("with no deadline at all the parent context did not come back")
		}
		cancel()
	}
}
