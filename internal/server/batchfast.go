package server

import (
	"math"
	"strconv"

	inano "inano"
	"inano/internal/netsim"
)

// The answer encoder of /v1/batch and /v1/query: hand-rolled, so that with
// batchpipe's strict line parser and core.StreamBatch a warm window of
// canonical lines allocates nothing. It replicates encoding/json's output
// for queryResult byte for byte (field order, omitempty, float formatting,
// trailing newline), pinned by TestAppendResultLineMatchesEncoder.

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

// answerLine is one answer on its way to the wire. From the moment its
// request is parsed it holds the addresses to echo back as src/dst, printed
// in their one spelling. Once the pair is answered it holds what the line
// carries of the PathInfo, copied out so that the line can be encoded after
// the PathInfo's owner has reused it.
type answerLine struct {
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

// batchSlot is one window of a /v1/batch stream: its lines, and the buffer
// their answers are encoded into, both grown as needed and reused.
type batchSlot struct {
	lines []answerLine
	buf   []byte
}

// appendWindow appends the answer line of every pair of a window, in order:
// the server's fill step of the batchpipe.Stage.
//
//inano:zeroalloc
func appendWindow(buf []byte, lines []answerLine, day int) []byte {
	for i := range lines {
		buf = appendResultLine(buf, &lines[i], day, nil, nil)
	}
	return buf
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
	buf = l.srcIP.AppendTo(buf)
	buf = append(buf, `","dst":"`...)
	buf = l.dstIP.AppendTo(buf)
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
