package batchpipe

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// MaxWindow caps the client-controlled ?window=: a stream that sends
// 64k-line windows grows its two slots to some thirty megabytes of lines
// and answers, large enough to amortize any fan-out and small enough that
// a hostile request cannot OOM the daemon.
const MaxWindow = 1 << 16

// Window is a stream's window in lines: ?window= when the request carries
// one, def otherwise, clamped to MaxWindow.
func Window(q url.Values, def int) (int, error) {
	if raw := q.Get("window"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			return 0, fmt.Errorf("bad window %q", raw)
		}
		def = n
	}
	return min(def, MaxWindow), nil
}

// RequestContext derives a request's context from its deadline: ?deadline_ms=
// when the request carries one (clamped to what a time.Duration holds), def
// otherwise, capped by max; with none at all parent itself serves.
func RequestContext(parent context.Context, q url.Values, def, max time.Duration) (context.Context, context.CancelFunc, error) {
	if raw := q.Get("deadline_ms"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms <= 0 {
			return nil, nil, fmt.Errorf("bad deadline_ms %q", raw)
		}
		def = time.Duration(min(ms, maxDeadlineMS)) * time.Millisecond
	}
	if max > 0 && (def == 0 || def > max) {
		def = max
	}
	if def <= 0 {
		return parent, func() {}, nil
	}
	ctx, cancel := context.WithTimeout(parent, def)
	return ctx, cancel, nil
}

// Stage is the second stage of a /v1/batch stream. The handler's goroutine
// reads window N+1 into one slot while the stage's goroutine, alive for this
// request only, fills in window N's answers from the other — the one step
// the two daemons do differently — and hands them to the ResponseWriter in
// one Write and one Flush. It stops at the first window it cannot fill or
// deliver. A slot (an S: what a daemon keeps of a window) belongs to
// whichever side last received it from a channel; the ResponseWriter is the
// handler's before Start and after Finish.
type Stage[S any] struct {
	w    http.ResponseWriter
	rc   *http.ResponseController
	fill func(*S) ([]byte, int, error)

	full     chan *S       // read windows, handler to stage
	free     chan *S       // delivered windows, stage to handler
	done     chan struct{} // closed when the stage goroutine has exited
	finished bool          // full is closed (the handler's own note)

	// The stage goroutine's results, the handler's to read after Finish.
	Written  int   // answer lines delivered
	err      error // the Write or Flush that failed
	aborted  error // fill's failure, as the terminal line the stage wrote says it
	panicked any   // what the goroutine panicked with
}

// Start starts the stage for one stream and returns it with the first slot
// to fill. fill answers a window: it returns the answers, complete lines in
// request order, and their count; with an error, those it has, which are
// written before the stream ends. Call Finish (or End) on every path out.
func Start[S any](w http.ResponseWriter, rc *http.ResponseController, fill func(*S) ([]byte, int, error)) (*Stage[S], *S) {
	st := &Stage[S]{
		w: w, rc: rc, fill: fill,
		full: make(chan *S),
		free: make(chan *S, 2), // both slots fit: the stage never waits to return one
		done: make(chan struct{}),
	}
	st.free <- new(S)
	go st.run()
	return st, new(S)
}

func (st *Stage[S]) run() {
	defer close(st.done)
	defer func() { st.panicked = recover() }()
	for slot := range st.full {
		buf, n, err := st.fill(slot)
		if _, st.err = st.w.Write(buf); st.err == nil {
			st.err = st.rc.Flush()
		}
		if st.err != nil {
			return
		}
		st.Written += n
		if err != nil {
			// Said here and now: the handler may be waiting on a client
			// that sends nothing more until it has heard of this window.
			st.aborted = st.terminate(fmt.Errorf("batch aborted after %d results: %w", st.Written, err))
			return
		}
		st.free <- slot
	}
}

// Exchange hands a read window to the stage and returns the slot for the
// next one, as the stage left it, waiting if need be until the window before
// is out. It returns nil when the stage has stopped: the stream is over.
func (st *Stage[S]) Exchange(slot *S) *S {
	select {
	case st.full <- slot:
	case <-st.done:
		return nil
	}
	select {
	case slot = <-st.free:
		return slot
	case <-st.done:
		return nil
	}
}

// Finish lets the stage deliver what it was handed and waits for it to exit:
// Written is then final, the ResponseWriter the caller's again. Later calls
// return at once.
func (st *Stage[S]) Finish() {
	if !st.finished {
		st.finished = true
		close(st.full)
	}
	<-st.done
}

// End finishes the stage and ends the stream, returning what the handler
// returns. A panic on the stage is re-raised here, on the handler's
// goroutine, where net/http expects a handler's panic. After a failed write
// nothing more is written. A malformed line (inputErr) or a window that
// could not be answered (streamErr; when it was fill that failed the stage
// has said so itself) ends the stream with a terminal line after every
// answer before it: clients treat a line bearing "error" and an empty "src"
// as the failed end of the stream.
func (st *Stage[S]) End(inputErr, streamErr error) error {
	st.Finish()
	switch {
	case st.panicked != nil:
		panic(st.panicked)
	case st.err != nil:
		return fmt.Errorf("writing batch response: %w", st.err)
	case st.aborted != nil:
		return st.aborted
	case streamErr != nil:
		return st.terminate(fmt.Errorf("batch aborted after %d results: %w", st.Written, streamErr))
	case inputErr != nil:
		return st.terminate(inputErr)
	}
	return nil
}

// terminate writes the last line of a failed stream — an answer line's fixed
// fields, zero, and the error — and returns failed.
func (st *Stage[S]) terminate(failed error) error {
	last, _ := json.Marshal(struct { // strings, a number and a bool cannot fail
		Src   string `json:"src"`
		Dst   string `json:"dst"`
		Found bool   `json:"found"`
		Day   int    `json:"day"`
		Error string `json:"error"`
	}{Error: failed.Error()})
	_, _ = st.w.Write(append(last, '\n')) // the stream has failed either way, and failed says how
	_ = st.rc.Flush()
	return failed
}
