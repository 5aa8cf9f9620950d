package server

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	inano "inano"
	"inano/internal/netsim"
)

// The /v1/batch line codec: a strict-canonical NDJSON line parser and a
// hand-rolled answer encoder (/v1/query's too) that together make the
// streamed batch loop allocation-free per line (paired with
// core.StreamBatch for the per-window prediction work).
//
// Correctness contract: the strict parser claims a line only when it is
// byte-for-byte in the canonical shape
//
//	{"src":"A.B.C.D","dst":"A.B.C.D"}
//	{"src":"A.B.C.D","dst":"A.B.C.D","deadline_ms":N}
//
// with strictly canonical dotted quads (digit-only octets, no leading
// zeros, 0-255) and a plain non-negative integer deadline. Everything
// else — reordered fields, whitespace, escapes, exponents, and the
// non-canonical addresses feedback.ParseIPv4 happens to accept (leading
// '+', "-0") — goes to parseBatchLineJSON, which echoes the original
// strings and reports encoding/json's errors. On every line the strict
// parser claims, the two agree (FuzzParseBatchLine). The encoder
// replicates encoding/json's output for queryResult byte for byte (field
// order, omitempty, float formatting, trailing newline), pinned by
// TestAppendResultLineMatchesEncoder.

var (
	fastLineSrc = []byte(`{"src":"`)
	fastLineDst = []byte(`","dst":"`)
	fastLineEnd = []byte(`"}`)
	fastLineDMS = []byte(`","deadline_ms":`)
)

// parseCanonIPv4 parses a strictly canonical dotted quad at the start of
// b, returning the address and the number of bytes consumed (-1 when b
// does not start with one).
//
//inano:zeroalloc
func parseCanonIPv4(b []byte) (inano.IP, int) {
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
	return inano.IP(ip), i
}

// parseBatchLine parses one canonical batch request line without
// allocating. ok is false when the line is anything but the exact
// canonical shape; the caller must then use parseBatchLineJSON.
//
//inano:zeroalloc
func parseBatchLine(line []byte) (src, dst inano.IP, deadlineMS int64, ok bool) {
	if len(line) < len(fastLineSrc) || string(line[:len(fastLineSrc)]) != string(fastLineSrc) {
		return 0, 0, 0, false
	}
	i := len(fastLineSrc)
	src, n := parseCanonIPv4(line[i:])
	if n < 0 {
		return 0, 0, 0, false
	}
	i += n
	if len(line)-i < len(fastLineDst) || string(line[i:i+len(fastLineDst)]) != string(fastLineDst) {
		return 0, 0, 0, false
	}
	i += len(fastLineDst)
	dst, n = parseCanonIPv4(line[i:])
	if n < 0 {
		return 0, 0, 0, false
	}
	i += n
	rest := line[i:]
	if len(rest) == len(fastLineEnd) && string(rest) == string(fastLineEnd) {
		return src, dst, 0, true
	}
	if len(rest) < len(fastLineDMS) || string(rest[:len(fastLineDMS)]) != string(fastLineDMS) {
		return 0, 0, 0, false
	}
	rest = rest[len(fastLineDMS):]
	if len(rest) < 2 || rest[len(rest)-1] != '}' {
		return 0, 0, 0, false
	}
	digits := rest[:len(rest)-1]
	// 1-18 plain digits: no sign, no exponent, no int64 overflow. A lone
	// "0" is fine ("no deadline", same as the slow path). Longer numbers
	// fall back so json.Unmarshal reports overflow exactly as before.
	if len(digits) == 0 || len(digits) > 18 {
		return 0, 0, 0, false
	}
	if len(digits) > 1 && digits[0] == '0' {
		return 0, 0, 0, false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, 0, 0, false
		}
		deadlineMS = deadlineMS*10 + int64(c-'0')
	}
	return src, dst, deadlineMS, true
}

// parseBatchLineJSON parses any batch request line through encoding/json
// and the shared address parser, keeping the request's own src/dst strings
// for the echo.
func parseBatchLineJSON(line []byte) (e answerLine, deadlineMS int64, err error) {
	var req pairRequest
	if err := json.Unmarshal(line, &req); err != nil {
		return e, 0, fmt.Errorf("bad pair: %v", err)
	}
	if e.srcIP, err = parseIP(req.Src); err != nil {
		return e, 0, fmt.Errorf("src: %v", err)
	}
	if e.dstIP, err = parseIP(req.Dst); err != nil {
		return e, 0, fmt.Errorf("dst: %v", err)
	}
	if req.DeadlineMS < 0 {
		return e, 0, fmt.Errorf("bad deadline_ms %d", req.DeadlineMS)
	}
	e.src, e.dst = req.Src, req.Dst
	return e, req.DeadlineMS, nil
}

// appendIPv4 appends the canonical dotted-quad form of ip. For addresses
// claimed by parseCanonIPv4 this regenerates the request bytes exactly,
// so fast-path lines need not retain their src/dst strings at all.
func appendIPv4(b []byte, ip inano.IP) []byte {
	for shift := 24; shift >= 0; shift -= 8 {
		if shift < 24 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(uint8(ip>>uint(shift))), 10)
	}
	return b
}

// appendJSONFloat appends f exactly as encoding/json encodes a float64:
// shortest representation, 'f' form unless the magnitude calls for 'e'
// form, with the exponent's leading zero stripped.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// encoding/json cleans "e-09" to "e-9" etc.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// jsonSafe reports whether s can be embedded in a JSON string without
// any escaping, under json.Encoder's default HTML-escaping rules.
func jsonSafe(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// answerLine is one answer on its way to the wire. From the moment its
// request is parsed it holds what to echo back as src/dst: for a canonical
// request line only the addresses (src == ""), whose canonical text is
// regenerated, for any other the request's own strings verbatim. Once the
// pair is answered it holds what the line carries of the PathInfo, copied
// out so that the line can be encoded after the PathInfo's owner has reused
// it.
type answerLine struct {
	src, dst                      string
	srcIP, dstIP                  inano.IP
	rttMS, lossRate, fwdMS, revMS float64
	found, expired                bool
}

func (l *answerLine) answer(info *inano.PathInfo, expired bool) {
	l.rttMS, l.lossRate, l.fwdMS, l.revMS = info.RTTMS, info.LossRate, info.Fwd.LatencyMS, info.Rev.LatencyMS
	l.found, l.expired = info.Found, expired
}

// copyAnswers moves a finished window's answers out of the runner's
// PathInfos, which the next Run overwrites, into the window's own lines.
//
//inano:zeroalloc
func copyAnswers(lines []answerLine, infos []inano.PathInfo, expired []bool) {
	for i := range infos {
		lines[i].answer(&infos[i], expired[i])
	}
}

// appendWindow appends the answer line of every pair of a window, in order.
//
//inano:zeroalloc
func appendWindow(buf []byte, lines []answerLine, day int) []byte {
	for i := range lines {
		buf = appendResultLine(buf, &lines[i], day, nil, nil)
	}
	return buf
}

// appendEchoString appends the echoed address: the canonical regeneration
// for a canonical line, the retained string otherwise — through
// encoding/json should it need escaping, a guard only: no string parseIP
// accepts today does (digits, '.', '+', '-').
func appendEchoString(b []byte, s string, ip inano.IP) []byte {
	switch {
	case s == "":
		return appendIPv4(b, ip)
	case jsonSafe(s):
		return append(b, s...)
	}
	quoted, _ := json.Marshal(s) // a string cannot fail
	return append(b, quoted[1:len(quoted)-1]...)
}

// appendASPath appends `,"<key>":[a,b,...]`, or nothing for an empty path
// (omitempty).
func appendASPath(buf []byte, key string, path []netsim.ASN) []byte {
	if len(path) == 0 {
		return buf
	}
	buf = append(buf, key...)
	for i, as := range path {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendUint(buf, uint64(as), 10)
	}
	return append(buf, ']')
}

// appendResultLine appends one answer line + '\n', byte-for-byte identical
// to json.Encoder encoding the equivalent queryResult: declared field
// order, found/day always present, zero-valued floats and empty AS paths
// omitted, error last. /v1/batch lines pass no AS paths, /v1/query the
// answer's.
//
//inano:zeroalloc
func appendResultLine(buf []byte, l *answerLine, day int, fwdAS, revAS []netsim.ASN) []byte {
	buf = append(buf, `{"src":"`...)
	buf = appendEchoString(buf, l.src, l.srcIP)
	buf = append(buf, `","dst":"`...)
	buf = appendEchoString(buf, l.dst, l.dstIP)
	buf = append(buf, `","found":`...)
	if l.found {
		buf = append(buf, "true"...)
		if l.rttMS != 0 {
			buf = append(buf, `,"rtt_ms":`...)
			buf = appendJSONFloat(buf, l.rttMS)
		}
		if l.lossRate != 0 {
			buf = append(buf, `,"loss_rate":`...)
			buf = appendJSONFloat(buf, l.lossRate)
		}
		if l.fwdMS != 0 {
			buf = append(buf, `,"fwd_ms":`...)
			buf = appendJSONFloat(buf, l.fwdMS)
		}
		if l.revMS != 0 {
			buf = append(buf, `,"rev_ms":`...)
			buf = appendJSONFloat(buf, l.revMS)
		}
		buf = appendASPath(buf, `,"fwd_as_path":[`, fwdAS)
		buf = appendASPath(buf, `,"rev_as_path":[`, revAS)
	} else {
		buf = append(buf, "false"...)
	}
	buf = append(buf, `,"day":`...)
	buf = strconv.AppendInt(buf, int64(day), 10)
	if l.expired {
		buf = append(buf, `,"error":"deadline_ms exceeded"`...)
	}
	buf = append(buf, '}', '\n')
	return buf
}
