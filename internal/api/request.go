// Package api is the /v1 contract inanod and inano-router share: one reader
// a request shape reads the whole request and returns it typed, or a Refusal
// with the status and text both daemons answer. A replica answers the typed
// request; the router routes it and forwards the bytes it read, so it
// refuses what a replica refuses, in the replica's words. Also here: the
// request line's parser, the /v1/batch stream's two-slot stage, and the
// Frame both daemons mount their endpoints on.
package api

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"inano/internal/netsim"
)

// Refusal is a request the contract refuses: its status and its text.
type Refusal struct {
	Status int
	Text   string
}

// Refuse makes a refusal with the status, its text formatted as by
// fmt.Sprintf.
func Refuse(status int, format string, args ...any) *Refusal {
	return &Refusal{Status: status, Text: fmt.Sprintf(format, args...)}
}

func badRequest(format string, args ...any) *Refusal {
	return Refuse(http.StatusBadRequest, format, args...)
}

func (rf *Refusal) Error() string { return rf.Text }

// Write answers with the refusal, its status and {"error":<text>}, and
// returns it for the handler to count: the one error writer of both
// daemons.
func (rf *Refusal) Write(w http.ResponseWriter) error {
	_ = WriteJSON(w, rf.Status, map[string]string{"error": rf.Text})
	return rf
}

// WriteJSON answers with the status and v in JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	return json.NewEncoder(w).Encode(v)
}

// readCount reads the parameter name: 0 when the request carries none,
// otherwise a positive integer.
func readCount(params url.Values, name string) (int, *Refusal) {
	raw := params.Get(name)
	if raw == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n <= 0 {
		return 0, badRequest("bad %s %q", name, raw)
	}
	return n, nil
}

// Deadline is a request's ?deadline_ms=, clamped to what a time.Duration
// holds; 0 when the request carries none.
type Deadline time.Duration

// readDeadline reads ?deadline_ms=.
func readDeadline(params url.Values) (Deadline, *Refusal) {
	ms, rf := readCount(params, "deadline_ms")
	return Deadline(time.Duration(min(int64(ms), maxDeadlineMS)) * time.Millisecond), rf
}

// Context derives the request's context: bounded by d when the request
// carries a deadline, by def otherwise, and never longer than max (0 =
// uncapped); with no bound at all parent itself serves.
func (d Deadline) Context(parent context.Context, def, max time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		def = time.Duration(d)
	}
	if max > 0 && (def == 0 || def > max) {
		def = max
	}
	if def <= 0 {
		return parent, func() {}
	}
	return context.WithTimeout(parent, def)
}

// readPair reads the addresses in ?src= and ?dst=.
func readPair(params url.Values) (src, dst netsim.IP, rf *Refusal) {
	var err error
	if src, err = netsim.ParseIPv4(params.Get("src")); err != nil {
		return 0, 0, badRequest("src: %v", err)
	}
	if dst, err = netsim.ParseIPv4(params.Get("dst")); err != nil {
		return 0, 0, badRequest("dst: %v", err)
	}
	return src, dst, nil
}

func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, *Refusal) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		return nil, badRequest("bad request body: %v", err)
	}
	return body, nil
}

// Query is a /v1/query.
type Query struct {
	Pair     Line // a POST line's deadline_ms included
	Deadline Deadline
	Body     []byte // a POST body as read; nil for a GET
}

// ReadQuery reads a /v1/query: GET ?src=&dst=, or POST with one request
// line (ParseLine) of at most MaxLineBytes as its body; then ?deadline_ms=.
func ReadQuery(w http.ResponseWriter, r *http.Request) (q Query, rf *Refusal) {
	params := r.URL.Query()
	switch r.Method {
	case http.MethodGet:
		if q.Pair.SrcIP, q.Pair.DstIP, rf = readPair(params); rf != nil {
			return q, rf
		}
	case http.MethodPost:
		if q.Body, rf = readBody(w, r, MaxLineBytes); rf != nil {
			return q, rf
		}
		var err error
		if q.Pair, err = ParseLine(bytes.TrimSpace(q.Body)); err != nil {
			return q, badRequest("%v", err)
		}
	default:
		return q, Refuse(http.StatusMethodNotAllowed, "use GET or POST")
	}
	q.Deadline, rf = readDeadline(params)
	return q, rf
}

// Rank is a /v1/rank: order Candidates for Src by predicted transfer time
// of SizeBytes when it is positive (the CDN shape, §7.1), by predicted RTT
// otherwise.
type Rank struct {
	Src        netsim.IP
	Candidates []netsim.IP // at least one
	SizeBytes  int
	Deadline   Deadline
	Body       []byte // as read
}

// rankRequest is a /v1/rank body as JSON holds it; encoding/json's errors
// name it.
type rankRequest struct {
	Src        string   `json:"src"`
	Candidates []string `json:"candidates"`
	SizeBytes  int      `json:"size_bytes"`
}

// ReadRank reads a /v1/rank: POST with a body of at most MaxRankBytes that
// is one JSON object {"src","candidates","size_bytes"}; then ?deadline_ms=.
func ReadRank(w http.ResponseWriter, r *http.Request) (rk Rank, rf *Refusal) {
	if r.Method != http.MethodPost {
		return rk, Refuse(http.StatusMethodNotAllowed, "use POST")
	}
	if rk.Body, rf = readBody(w, r, MaxRankBytes); rf != nil {
		return rk, rf
	}
	var body rankRequest
	if err := json.Unmarshal(rk.Body, &body); err != nil {
		return rk, badRequest("bad request body: %v", err)
	}
	var err error
	if rk.Src, err = netsim.ParseIPv4(body.Src); err != nil {
		return rk, badRequest("src: %v", err)
	}
	if len(body.Candidates) == 0 {
		return rk, badRequest("no candidates")
	}
	rk.Candidates = make([]netsim.IP, len(body.Candidates))
	for i, c := range body.Candidates {
		if rk.Candidates[i], err = netsim.ParseIPv4(c); err != nil {
			return rk, badRequest("candidate %d: %v", i, err)
		}
	}
	rk.SizeBytes = body.SizeBytes
	rk.Deadline, rf = readDeadline(r.URL.Query())
	return rk, rf
}

// Relay is a /v1/relay: pick a relay for Src->Dst out of Relays, among
// the K (0 = the library's default) of lowest predicted loss.
type Relay struct {
	Src, Dst netsim.IP
	Relays   []netsim.IP // at least one
	K        int
	Deadline Deadline
}

// ReadRelay reads a /v1/relay: GET ?src=&dst=, ?relays= (comma-separated
// addresses, blanks skipped), ?k= and ?deadline_ms=.
func ReadRelay(r *http.Request) (rl Relay, rf *Refusal) {
	if r.Method != http.MethodGet {
		return rl, Refuse(http.StatusMethodNotAllowed, "use GET")
	}
	params := r.URL.Query()
	if rl.Src, rl.Dst, rf = readPair(params); rf != nil {
		return rl, rf
	}
	for _, raw := range strings.Split(params.Get("relays"), ",") {
		if raw = strings.TrimSpace(raw); raw == "" {
			continue
		}
		ip, err := netsim.ParseIPv4(raw)
		if err != nil {
			return rl, badRequest("relays: %v", err)
		}
		rl.Relays = append(rl.Relays, ip)
	}
	if len(rl.Relays) == 0 {
		return rl, badRequest("no relay candidates")
	}
	if rl.K, rf = readCount(params, "k"); rf != nil {
		return rl, rf
	}
	rl.Deadline, rf = readDeadline(params)
	return rl, rf
}

// MaxWindow caps the client-controlled ?window=: a stream that sends
// 64k-line windows grows its two slots to some thirty megabytes of lines
// and answers, large enough to amortize any fan-out and small enough that
// a hostile request cannot OOM the daemon.
const MaxWindow = 1 << 16

// Batch is a /v1/batch stream: its head, and its request lines (Next).
type Batch struct {
	Window   int
	Deadline Deadline // the whole stream's
	RC       *http.ResponseController

	body  io.ReadCloser
	lines *bufio.Scanner
	n     int   // lines read, blank ones included
	err   error // why the lines ended early
}

// ReadBatch reads a /v1/batch stream's head: POST, ?deadline_ms=, and
// ?window= (window when it carries none), clamped to MaxWindow. It readies
// the response: NDJSON, and full duplex, without which the HTTP/1 server
// drains the body before the first flush and deadlocks an interleaved
// producer.
func ReadBatch(w http.ResponseWriter, r *http.Request, window int) (*Batch, *Refusal) {
	if r.Method != http.MethodPost {
		return nil, Refuse(http.StatusMethodNotAllowed, "use POST")
	}
	params := r.URL.Query()
	b := &Batch{}
	var rf *Refusal
	if b.Deadline, rf = readDeadline(params); rf != nil {
		return nil, rf
	}
	if b.Window, rf = readCount(params, "window"); rf != nil {
		return nil, rf
	}
	b.Window = min(cmp.Or(b.Window, window), MaxWindow)
	w.Header().Set("Content-Type", "application/x-ndjson")
	b.RC = http.NewResponseController(w)
	if err := b.RC.EnableFullDuplex(); err != nil {
		return nil, Refuse(http.StatusInternalServerError, "streaming unsupported: %v", err)
	}
	b.body = r.Body
	b.lines = bufio.NewScanner(r.Body)
	b.lines.Buffer(make([]byte, 0, 4096), MaxLineBytes)
	return b, nil
}

// Close closes the request body, which drains what the stream left unread
// (up to net/http's post-handler limit). A handler calls it last, after the
// terminal line, so a client has heard the stream is over before the
// daemon waits on its body. It must run inside the handler: in full-duplex
// mode net/http leaves the body alone until the handler has returned and
// it has stopped the connection's pending reads, and its own close then
// drains the body to its end, which starts a read of the next request that
// nothing stops — the connection's next request panics on it ("invalid
// concurrent Body.Read call"). Closed here, the read starts while the
// handler runs, and net/http stops it as it finishes the response.
func (b *Batch) Close() error { return b.body.Close() }

// Next reads the stream's next request line, trimmed, blank lines skipped:
// its bytes, valid until the next call, and its parse. It returns false at
// the end of the body, and at the first line that does not parse or cannot
// be read, which Err then names.
func (b *Batch) Next() (line []byte, l Line, ok bool) {
	for b.lines.Scan() {
		b.n++
		if line = bytes.TrimSpace(b.lines.Bytes()); len(line) == 0 {
			continue
		}
		var err error
		if l, err = ParseLine(line); err != nil {
			b.err = fmt.Errorf("line %d: %v", b.n, err)
			return nil, l, false
		}
		return line, l, true
	}
	if err := b.lines.Err(); err != nil {
		b.err = fmt.Errorf("reading batch body: %w", err)
	}
	return nil, Line{}, false
}

// Err names what ended the stream's lines early, a malformed line or a
// failed read; nil otherwise.
func (b *Batch) Err() error { return b.err }

// Report is a /v1/feedback or /v1/observations report: the lines that
// parsed, in order, and what ended them early.
type Report[T any] struct {
	Lines    []T
	Err      string // the line that did not parse or could not be read; "" when none
	Deadline Deadline
}

// ReadReport reads an NDJSON report: POST; then off, the refusal of an
// endpoint this daemon has not enabled (nil when it has); ?deadline_ms=,
// before any of the body is read; and the body, of at most limit bytes,
// through parse, which returns the lines before the first it could not
// parse or read and that line's error. A report of which no line parses is
// refused with that error.
func ReadReport[T any](w http.ResponseWriter, r *http.Request, off *Refusal, limit int64, parse func(io.Reader) ([]T, error)) (rp Report[T], rf *Refusal) {
	if r.Method != http.MethodPost {
		return rp, Refuse(http.StatusMethodNotAllowed, "use POST")
	}
	if off != nil {
		return rp, off
	}
	if rp.Deadline, rf = readDeadline(r.URL.Query()); rf != nil {
		return rp, rf
	}
	var err error
	if rp.Lines, err = parse(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		if len(rp.Lines) == 0 {
			return rp, badRequest("%v", err)
		}
		rp.Err = err.Error()
	}
	return rp, nil
}
