package cluster

// Streamed /v1/batch through the router: the window loop inanod runs
// (internal/api: one request reader, one two-slot stage, one Write and one
// Flush a window, one terminal line) with the router's own fill step. This
// goroutine reads a window of the client's lines, each read as a replica
// reads it, and keys each by destination cluster; the stage
// then answers the window at the replicas: the lines grouped by ring owner,
// each group one complete POST /v1/batch?window=<its size> on the keep-alive
// client, each answer line stored — byte-verbatim — at its line's position,
// the window written in client order. The cluster's output for a pair
// stream is a single node's, modulo which replica computed each line.
//
// Failure: a replica that does not answer its whole group (transport error,
// non-200, short or torn answer, a terminal line or anything else that is
// no answer) is out of the ring, and only the lines whose answers did not
// fully arrive go to the ring's next live owner, in the next round of the
// same window. No replica is asked twice for one window, so the rounds are
// finite; when a line has no live owner left the stream ends with the
// answers before it and the terminal line. The request's deadline is the
// router's: one context bounds the stream, and a replica cut off by it is
// not a failed replica.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"inano/internal/api"
)

// routedLine is one request line of a window.
type routedLine struct {
	from, to int    // its bytes in routedWindow.req
	key      uint64 // ring key of its destination
	answer   []byte // a replica's answer line, '\n' included; nil until one has fully arrived
}

// routedWindow is one window of a routed stream, a slot of its stage.
type routedWindow struct {
	first int    // the stream's count of lines before this window, for error texts
	req   []byte // the request lines, trimmed and '\n'-terminated, in client order
	lines []routedLine
	out   []byte // the answers in client order: what the stage writes
}

// subRequest is what one replica is asked of a window in one round.
type subRequest struct {
	node     string
	idx      []int  // the window's lines it carries, by position
	body     []byte // those lines
	answered int    // answers that fully arrived: those of idx[:answered]
	why      string // how the replica failed; "" when it answered every line
	panicked any    // what asking it panicked with, off the caller's goroutine
}

// handleBatch routes one client pair stream across the replica set.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) error {
	b, rf := api.ReadBatch(w, r, rt.cfg.Window)
	if rf != nil {
		return rf.Write(w)
	}
	defer b.Close()
	// The request's deadline is the router's: it bounds the whole stream,
	// and the replicas are not sent it.
	ctx, cancel := b.Deadline.Context(r.Context(), 0, 0)
	defer cancel()
	st, slot := api.Start(w, b.RC, func(win *routedWindow) ([]byte, int, error) {
		return rt.answerWindow(ctx, win)
	})
	defer st.Finish() // a panic on this goroutine must not leave the stage behind
	total := 0
	for slot != nil {
		line, l, ok := b.Next()
		if !ok {
			break
		}
		start := len(slot.req)
		slot.req = append(append(slot.req, line...), '\n')
		slot.lines = append(slot.lines, routedLine{from: start, to: len(slot.req), key: rt.keyFor(l.DstIP)})
		total++
		if len(slot.lines) >= b.Window {
			if slot = st.Exchange(slot); slot != nil {
				slot.first, slot.req, slot.lines = total, slot.req[:0], slot.lines[:0]
			}
		}
	}
	if slot != nil && len(slot.lines) > 0 {
		st.Exchange(slot)
	}
	return st.End(b.Err(), nil)
}

// answerWindow is the router's fill step: it answers a window at the
// replicas, round after round until every line has its answer, and returns
// the answers in client order. When it cannot go on — no live replica left
// for a line, or the stream's context is done — it returns the answers
// before the first line without one, and why.
func (rt *Router) answerWindow(ctx context.Context, win *routedWindow) ([]byte, int, error) {
	pending := make([]int, len(win.lines))
	for i := range pending {
		pending[i] = i
	}
	var failed []string // the replicas that failed this window
	for round := 0; len(pending) > 0; round++ {
		if round > 0 {
			rt.batchRetry.Add(uint64(len(pending)))
		}
		groups, err := rt.groupByOwner(win, pending, failed)
		if err != nil {
			rt.noReplica.Inc() // once a stream: this error ends it
			return win.answeredPrefix(err)
		}
		var wg sync.WaitGroup
		for _, g := range groups[1:] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { g.panicked = recover() }()
				rt.ask(ctx, win, g)
			}()
		}
		rt.ask(ctx, win, groups[0])
		wg.Wait()
		pending = pending[:0]
		for _, g := range groups {
			if g.panicked != nil {
				panic(g.panicked)
			}
			if g.why == "" {
				continue
			}
			// An expired or cancelled stream says nothing about a replica.
			if err := ctx.Err(); err != nil {
				return win.answeredPrefix(err)
			}
			rt.markDown(g.node, g.why)
			failed = append(failed, g.node)
			pending = append(pending, g.idx[g.answered:]...)
		}
		slices.Sort(pending)
	}
	return win.answeredPrefix(nil)
}

// answeredPrefix ends a window with the answers before the first line
// without one: all of them, unless the window could not be answered in full.
func (win *routedWindow) answeredPrefix(err error) ([]byte, int, error) {
	n := 0
	for n < len(win.lines) && win.lines[n].answer != nil {
		n++
	}
	win.out = appendAnswers(win.out[:0], win.lines[:n])
	return win.out, n, err
}

// appendAnswers appends the lines' answers, in order.
//
//inano:zeroalloc
func appendAnswers(buf []byte, lines []routedLine) []byte {
	for i := range lines {
		buf = append(buf, lines[i].answer...)
	}
	return buf
}

// groupByOwner splits the pending lines among their live ring owners, one
// sub-request a replica, skipping the replicas that failed this window.
func (rt *Router) groupByOwner(win *routedWindow, pending []int, failed []string) ([]*subRequest, error) {
	ring := rt.ring.Load()
	usable := func(n string) bool { return rt.nodes[n].up.Load() && !slices.Contains(failed, n) }
	var groups []*subRequest
	byNode := make(map[string]*subRequest, ring.Len())
	for _, i := range pending {
		node := ring.Owner(win.lines[i].key)
		if node != "" && !usable(node) {
			node = ""
			for _, n := range ring.Owners(win.lines[i].key, 0)[1:] {
				if usable(n) {
					node = n
					break
				}
			}
		}
		if node == "" {
			return nil, fmt.Errorf("no live replica for pair %d", win.first+i)
		}
		g := byNode[node]
		if g == nil {
			g = &subRequest{node: node}
			byNode[node] = g
			groups = append(groups, g)
		}
		g.idx = append(g.idx, i)
		g.body = append(g.body, win.req[win.lines[i].from:win.lines[i].to]...)
	}
	return groups, nil
}

// ask sends one sub-request and stores every answer line that fully arrives
// at its line's position. The replica answers the group in one window.
func (rt *Router) ask(ctx context.Context, win *routedWindow, g *subRequest) {
	rt.batchLines.Add(uint64(len(g.idx)))
	var resp *http.Response
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		g.node+"/v1/batch?window="+strconv.Itoa(len(g.idx)), bytes.NewReader(g.body))
	if err == nil {
		req.Header.Set("Content-Type", "application/x-ndjson")
		resp, err = rt.client.Do(req)
	}
	if err != nil {
		g.why = fmt.Sprintf("batch sub-request: %v", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		g.why = fmt.Sprintf("batch sub-request answered %d", resp.StatusCode)
		return
	}
	body, readErr := io.ReadAll(resp.Body)
	for len(body) > 0 && g.why == "" {
		nl := bytes.IndexByte(body, '\n')
		switch {
		case nl < 0:
			g.why = "batch sub-request: torn answer line"
		case g.answered == len(g.idx):
			g.why = "batch sub-request: unrequested line"
		case !isAnswer(body[:nl+1]):
			g.why = fmt.Sprintf("batch sub-request: not an answer: %.200q", body[:nl+1])
		default:
			win.lines[g.idx[g.answered]].answer = body[:nl+1]
			g.answered++
			body = body[nl+1:]
		}
	}
	switch {
	case g.why != "":
	case readErr != nil:
		g.why = fmt.Sprintf("batch sub-request read: %v", readErr)
	case g.answered < len(g.idx):
		g.why = fmt.Sprintf("batch sub-request: %d answers to %d lines", g.answered, len(g.idx))
	}
}

var answerStart = []byte(`{"src":"`)

// isAnswer reports whether a replica's line is an answer to forward. An
// inanod's answer begins {"src":"<address> and is taken at that, unparsed;
// its terminal line (an error and an empty src: its stream is over) does
// not, nor does anything that is not inanod's.
func isAnswer(line []byte) bool {
	n := len(answerStart)
	return len(line) > n && bytes.HasPrefix(line, answerStart) && line[n] != '"'
}
