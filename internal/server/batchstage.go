package server

import "net/http"

// batchSlot is one window of a /v1/batch stream: its lines, and the buffer
// their answers are encoded into, both grown as needed and reused.
type batchSlot struct {
	lines []answerLine
	buf   []byte
}

// batchStage is the second stage of a /v1/batch stream (see handleBatch): a
// goroutine that encodes each answered window into its slot's buffer and
// hands it to the ResponseWriter in one Write and one Flush, and stops at
// the first window it cannot deliver. A slot belongs to whichever side last
// received it from a channel.
type batchStage struct {
	w   http.ResponseWriter
	rc  *http.ResponseController
	day int

	full     chan *batchSlot // answered windows, handler to stage
	free     chan *batchSlot // delivered windows, stage to handler
	done     chan struct{}   // closed when the stage goroutine has exited
	finished bool            // full is closed (the handler's own note)

	// The stage goroutine's results, the handler's to read after finish.
	written  int   // answer lines delivered
	err      error // the Write or Flush that failed
	panicked any   // what the goroutine panicked with
}

// startBatchStage starts the stage for one stream and returns it with the
// first slot to fill. The caller must call finish on every path out.
func startBatchStage(w http.ResponseWriter, rc *http.ResponseController, day int) (*batchStage, *batchSlot) {
	st := &batchStage{
		w: w, rc: rc, day: day,
		full: make(chan *batchSlot),
		free: make(chan *batchSlot, 2), // both slots fit: the stage never waits to return one
		done: make(chan struct{}),
	}
	st.free <- new(batchSlot)
	go st.run()
	return st, new(batchSlot)
}

func (st *batchStage) run() {
	defer close(st.done)
	defer func() { st.panicked = recover() }()
	for slot := range st.full {
		slot.buf = appendWindow(slot.buf[:0], slot.lines, st.day)
		if _, st.err = st.w.Write(slot.buf); st.err == nil {
			st.err = st.rc.Flush()
		}
		if st.err != nil {
			return
		}
		st.written += len(slot.lines)
		st.free <- slot
	}
}

// exchange hands an answered window to the stage and returns an empty slot
// for the next one, waiting if need be until the window before is out. It
// returns nil when the stage has stopped: the stream is over.
func (st *batchStage) exchange(slot *batchSlot) *batchSlot {
	select {
	case st.full <- slot:
	case <-st.done:
		return nil
	}
	select {
	case slot = <-st.free:
		slot.lines = slot.lines[:0]
		return slot
	case <-st.done:
		return nil
	}
}

// finish lets the stage deliver what it was handed and waits for it to
// exit: written, err and panicked are then final, and the ResponseWriter is
// the caller's again. Later calls return at once.
func (st *batchStage) finish() {
	if !st.finished {
		st.finished = true
		close(st.full)
	}
	<-st.done
}
