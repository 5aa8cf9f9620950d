package api

// The request line — a pair of a /v1/batch stream, the body of a /v1/query
// POST — has two parsers. The strict one claims only the canonical shape
//
//	{"src":"A.B.C.D","dst":"A.B.C.D"}
//	{"src":"A.B.C.D","dst":"A.B.C.D","deadline_ms":N}
//
// byte for byte, with addresses netsim.ParseIPv4 accepts and a plain
// non-negative integer deadline; every other line is parseLineJSON's, with
// encoding/json's and the address parser's errors. On every line the strict
// parser claims the two agree (FuzzParseBatchLine). A parsed line keeps only
// its addresses: each has one spelling, so printing it gives back the
// string the request's JSON held.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"

	"inano/internal/netsim"
)

// MaxLineBytes caps one request line, on a replica and on the router
// alike: a longer line ends the stream with its terminal line.
const MaxLineBytes = 64 << 10

// MaxRankBytes caps a /v1/rank request body, on a replica and on the
// router alike; a longer body is refused as a bad request.
const MaxRankBytes = 1 << 20

// Line is one parsed request line: its addresses, whose one spelling is
// also the echo's (netsim.IP.AppendTo), and its deadline.
type Line struct {
	SrcIP, DstIP netsim.IP
	DeadlineMS   int64 // the pair's own deadline; 0 = none
}

// maxDeadlineMS is the longest deadline a time.Duration holds, some 292
// years: ParseLine clamps a longer one to it, which is as good as none,
// rather than let the conversion wrap it into the past.
const maxDeadlineMS = math.MaxInt64 / int64(time.Millisecond)

// ParseLine parses one request line, trimmed of surrounding space: the
// strict parser claims a canonical line without allocating, any other line
// is encoding/json's.
func ParseLine(line []byte) (l Line, err error) {
	l, ok := parseCanonLine(line)
	if !ok {
		if l, err = parseLineJSON(line); err != nil {
			return l, err
		}
	}
	l.DeadlineMS = min(l.DeadlineMS, maxDeadlineMS)
	return l, nil
}

var (
	canonSrc = []byte(`{"src":"`)
	canonDst = []byte(`","dst":"`)
	canonEnd = []byte(`"}`)
	canonDMS = []byte(`","deadline_ms":`)
)

// cutIPv4 reads the address at the start of b, up to the quote that closes
// its JSON string, and returns the rest of b from that quote on. ok is
// false unless the string is a dotted quad netsim.ParseIPv4 accepts, which
// has no character JSON escapes.
//
//inano:zeroalloc
func cutIPv4(b []byte) (ip netsim.IP, rest []byte, ok bool) {
	j := bytes.IndexByte(b, '"')
	if j < 0 {
		return 0, nil, false
	}
	// An address the grammar refuses costs its error's allocation, on a
	// line parseLineJSON then refuses too.
	ip, err := netsim.ParseIPv4(b[:j])
	return ip, b[j:], err == nil
}

// parseCanonLine parses one canonical request line. ok is false when the
// line is anything but the exact canonical shape; a line it claims costs
// no allocation.
//
//inano:zeroalloc
func parseCanonLine(line []byte) (l Line, ok bool) {
	rest, ok := bytes.CutPrefix(line, canonSrc)
	if !ok {
		return Line{}, false
	}
	if l.SrcIP, rest, ok = cutIPv4(rest); !ok {
		return Line{}, false
	}
	if rest, ok = bytes.CutPrefix(rest, canonDst); !ok {
		return Line{}, false
	}
	if l.DstIP, rest, ok = cutIPv4(rest); !ok {
		return Line{}, false
	}
	if bytes.Equal(rest, canonEnd) {
		return l, true
	}
	if rest, ok = bytes.CutPrefix(rest, canonDMS); !ok {
		return Line{}, false
	}
	if len(rest) < 2 || rest[len(rest)-1] != '}' {
		return Line{}, false
	}
	digits := rest[:len(rest)-1]
	// 1-18 plain digits: no sign, no exponent, no int64 overflow. A lone
	// "0" is fine ("no deadline", same as the slow path). Longer numbers
	// fall back so json.Unmarshal reports overflow exactly as before.
	if len(digits) == 0 || len(digits) > 18 {
		return Line{}, false
	}
	if len(digits) > 1 && digits[0] == '0' {
		return Line{}, false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return Line{}, false
		}
		l.DeadlineMS = l.DeadlineMS*10 + int64(c-'0')
	}
	return l, true
}

// parseLineJSON parses any request line through encoding/json and the one
// address parser every wire format shares.
func parseLineJSON(line []byte) (l Line, err error) {
	var req struct {
		Src        string `json:"src"`
		Dst        string `json:"dst"`
		DeadlineMS int64  `json:"deadline_ms"`
	}
	if err := json.Unmarshal(line, &req); err != nil {
		return l, fmt.Errorf("bad pair: %v", err)
	}
	if l.SrcIP, err = netsim.ParseIPv4(req.Src); err != nil {
		return l, fmt.Errorf("src: %v", err)
	}
	if l.DstIP, err = netsim.ParseIPv4(req.Dst); err != nil {
		return l, fmt.Errorf("dst: %v", err)
	}
	if req.DeadlineMS < 0 {
		return l, fmt.Errorf("bad deadline_ms %q", strconv.FormatInt(req.DeadlineMS, 10))
	}
	l.DeadlineMS = req.DeadlineMS
	return l, nil
}
