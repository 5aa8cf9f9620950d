package api

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// recWriter is a ResponseWriter that records what a stage does to it.
// beforeWrite, when set, runs first in the n-th Write (1-based).
type recWriter struct {
	body            bytes.Buffer
	writes, flushes int
	beforeWrite     func(n int) error
}

func (w *recWriter) Header() http.Header     { return http.Header{} }
func (w *recWriter) WriteHeader(int)         {}
func (w *recWriter) FlushError() error       { w.flushes++; return nil }
func (w *recWriter) EnableFullDuplex() error { return nil }
func (w *recWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.beforeWrite != nil {
		if err := w.beforeWrite(w.writes); err != nil {
			return 0, err
		}
	}
	return w.body.Write(p)
}

// textSlot is the test's window: lines to send back as they are.
type textSlot struct {
	lines []string
	buf   []byte
}

func echoFill(s *textSlot) ([]byte, int, error) {
	s.buf = s.buf[:0]
	for _, l := range s.lines {
		s.buf = append(append(s.buf, l...), '\n')
	}
	return s.buf, len(s.lines), nil
}

// stream drives a stage the way a handler does: windows of `window` lines
// out of n, then End.
func stream(st *Stage[textSlot], slot *textSlot, n, window int, inputErr error) (recovered any, err error) {
	defer func() { recovered = recover() }()
	defer st.Finish()
	for i := 0; i < n && slot != nil; i++ {
		slot.lines = append(slot.lines, fmt.Sprintf("line %d", i))
		if len(slot.lines) == window || i == n-1 {
			if slot = st.Exchange(slot); slot != nil {
				slot.lines = slot.lines[:0]
			}
		}
	}
	return nil, st.End(inputErr, nil)
}

func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want the baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func wantLines(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "line %d\n", i)
	}
	return b.String()
}

// TestStageWindows: every exchanged window goes out in order in one Write
// and one Flush, the count is the lines delivered, and no goroutine stays.
func TestStageWindows(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, n := range []int{0, 1, 3, 4, 5, 43} {
		w := &recWriter{}
		st, slot := Start(w, http.NewResponseController(w), echoFill)
		if _, err := stream(st, slot, n, 4, nil); err != nil {
			t.Fatalf("%d lines: %v", n, err)
		}
		if got := w.body.String(); got != wantLines(n) {
			t.Fatalf("%d lines: body %q", n, got)
		}
		if windows := (n + 3) / 4; w.writes != windows || w.flushes != windows || st.Written != n {
			t.Fatalf("%d lines: %d writes, %d flushes, %d written; want %d windows", n, w.writes, w.flushes, st.Written, windows)
		}
	}
	waitGoroutines(t, base)
}

// TestStageWriteFails: the stage stops at the first write that fails,
// Exchange says so, and End writes nothing more — no terminal line either.
func TestStageWriteFails(t *testing.T) {
	w := &recWriter{beforeWrite: func(n int) error {
		if n >= 3 {
			return io.ErrClosedPipe
		}
		return nil
	}}
	st, slot := Start(w, http.NewResponseController(w), echoFill)
	_, err := stream(st, slot, 40, 4, errors.New("line 41: bad pair"))
	if err == nil || !errors.Is(err, io.ErrClosedPipe) || !strings.HasPrefix(err.Error(), "writing batch response: ") {
		t.Fatalf("End returned %v, want the write error", err)
	}
	if w.writes != 3 || w.body.String() != wantLines(8) || st.Written != 8 {
		t.Fatalf("%d writes, %d written, body %q; want 3 writes (the third failing) and 8 lines", w.writes, st.Written, w.body.String())
	}
}

// TestStageFillFails: a window that cannot be answered in full ends the
// stream with the answers it has, then the terminal line counting every line
// written; the same line ends a stream after a malformed request line.
func TestStageFillFails(t *testing.T) {
	w := &recWriter{}
	st, slot := Start(w, http.NewResponseController(w), func(s *textSlot) ([]byte, int, error) {
		if s.lines[0] == "line 8" {
			s.lines = s.lines[:1]
			buf, n, _ := echoFill(s)
			return buf, n, errors.New("no live replica for pair 9")
		}
		return echoFill(s)
	})
	_, err := stream(st, slot, 40, 4, nil)
	const msg = "batch aborted after 9 results: no live replica for pair 9"
	if err == nil || err.Error() != msg {
		t.Fatalf("End returned %v", err)
	}
	want := wantLines(9) + `{"src":"","dst":"","found":false,"day":0,"error":"` + msg + `"}` + "\n"
	if w.body.String() != want || w.writes != 4 {
		t.Fatalf("%d writes, body %q\nwant %q", w.writes, w.body.String(), want)
	}

	w = &recWriter{}
	st, slot = Start(w, http.NewResponseController(w), echoFill)
	_, err = stream(st, slot, 5, 4, errors.New(`line 6: bad pair: <&>`))
	if want := wantLines(5) + `{"src":"","dst":"","found":false,"day":0,"error":"line 6: bad pair: \u003c\u0026\u003e"}` + "\n"; err == nil || w.body.String() != want {
		t.Fatalf("err %v, body %q\nwant %q", err, w.body.String(), want)
	}
}

// TestStagePanic: a panic in the fill step or under the Write reaches the
// goroutine that calls End, and the stage goroutine is gone by then.
func TestStagePanic(t *testing.T) {
	base := runtime.NumGoroutine()
	w := &recWriter{}
	st, slot := Start(w, http.NewResponseController(w), func(s *textSlot) ([]byte, int, error) {
		if s.lines[0] == "line 4" {
			panic("second fill")
		}
		return echoFill(s)
	})
	if recovered, _ := stream(st, slot, 40, 4, nil); recovered != "second fill" {
		t.Fatalf("the handler's goroutine recovered %v, want the fill step's panic", recovered)
	}
	if st.Written != 4 || w.body.String() != wantLines(4) {
		t.Fatalf("%d written, body %q; want the first window", st.Written, w.body.String())
	}
	waitGoroutines(t, base)
}
