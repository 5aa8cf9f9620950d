// Package batchpipe is the /v1/batch window pipeline inanod and inano-router
// share: the request-line parser, the ?window= and ?deadline_ms= parameters,
// and the two-slot stage that writes a stream's answers a window at a time
// and ends a failed stream with its terminal line. The daemons differ only
// in how a window is filled: inanod encodes its own answers, the router asks
// the replicas.
//
// Correctness contract of the parser: the strict half claims a line only when
// it is byte-for-byte in the canonical shape
//
//	{"src":"A.B.C.D","dst":"A.B.C.D"}
//	{"src":"A.B.C.D","dst":"A.B.C.D","deadline_ms":N}
//
// with strictly canonical dotted quads (digit-only octets, no leading
// zeros, 0-255) and a plain non-negative integer deadline. Everything
// else — reordered fields, whitespace, escapes, exponents, and addresses
// netsim.ParseIPv4 refuses — goes to parseLineJSON, which keeps the
// decoded strings and reports encoding/json's and the address parser's
// errors. On every line the strict parser
// claims, the two agree (FuzzParseBatchLine).
package batchpipe

import (
	"encoding/json"
	"fmt"

	"inano/internal/netsim"
)

// MaxLineBytes caps one request line, on a replica and on the router
// alike: a longer line ends the stream with its terminal line.
const MaxLineBytes = 64 << 10

// MaxRankBytes caps a /v1/rank request body, on a replica and on the
// router alike; a /v1/query POST body is one line, capped at MaxLineBytes.
// A longer body is refused as a bad request.
const MaxRankBytes = 1 << 20

// Line is one parsed request line. A canonical line leaves Src and Dst
// empty: the addresses' canonical text is the line's own. Any other line
// keeps the request's strings verbatim, for the echo.
type Line struct {
	Src, Dst     string
	SrcIP, DstIP netsim.IP
	DeadlineMS   int64 // the pair's own deadline; 0 = none
}

// ParseLine parses one request line, trimmed of surrounding space: the
// strict parser claims a canonical line without allocating, any other line
// is encoding/json's.
func ParseLine(line []byte) (Line, error) {
	if l, ok := parseCanonLine(line); ok {
		return l, nil
	}
	return parseLineJSON(line)
}

var (
	canonSrc = []byte(`{"src":"`)
	canonDst = []byte(`","dst":"`)
	canonEnd = []byte(`"}`)
	canonDMS = []byte(`","deadline_ms":`)
)

// parseCanonIPv4 parses a strictly canonical dotted quad at the start of
// b, returning the address and the number of bytes consumed (-1 when b
// does not start with one).
//
//inano:zeroalloc
func parseCanonIPv4(b []byte) (netsim.IP, int) {
	var ip uint32
	i := 0
	for oct := 0; oct < 4; oct++ {
		if oct > 0 {
			if i >= len(b) || b[i] != '.' {
				return 0, -1
			}
			i++
		}
		start := i
		v := 0
		for i < len(b) && b[i] >= '0' && b[i] <= '9' && i-start < 3 {
			v = v*10 + int(b[i]-'0')
			i++
		}
		if i == start || v > 255 {
			return 0, -1
		}
		if b[start] == '0' && i-start > 1 {
			return 0, -1 // leading zero: not canonical
		}
		ip = ip<<8 | uint32(v)
	}
	return netsim.IP(ip), i
}

// parseCanonLine parses one canonical request line without allocating. ok
// is false when the line is anything but the exact canonical shape.
//
//inano:zeroalloc
func parseCanonLine(line []byte) (l Line, ok bool) {
	if len(line) < len(canonSrc) || string(line[:len(canonSrc)]) != string(canonSrc) {
		return Line{}, false
	}
	i := len(canonSrc)
	src, n := parseCanonIPv4(line[i:])
	if n < 0 {
		return Line{}, false
	}
	i += n
	if len(line)-i < len(canonDst) || string(line[i:i+len(canonDst)]) != string(canonDst) {
		return Line{}, false
	}
	i += len(canonDst)
	dst, n := parseCanonIPv4(line[i:])
	if n < 0 {
		return Line{}, false
	}
	i += n
	l.SrcIP, l.DstIP = src, dst
	rest := line[i:]
	if len(rest) == len(canonEnd) && string(rest) == string(canonEnd) {
		return l, true
	}
	if len(rest) < len(canonDMS) || string(rest[:len(canonDMS)]) != string(canonDMS) {
		return Line{}, false
	}
	rest = rest[len(canonDMS):]
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
		return l, fmt.Errorf("bad deadline_ms %d", req.DeadlineMS)
	}
	l.Src, l.Dst, l.DeadlineMS = req.Src, req.Dst, req.DeadlineMS
	return l, nil
}
