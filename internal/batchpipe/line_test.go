package batchpipe

import (
	"encoding/json"
	"strings"
	"testing"

	"inano/internal/netsim"
)

// parseLineCases is TestParseBatchLine's table and FuzzParseBatchLine's
// seed corpus.
var parseLineCases = []struct {
	line     string
	ok       bool   // the strict parser claims it
	src, dst string // its addresses when ok
	dms      int64  // the deadline read, before ParseLine clamps it
	errText  string // what ParseLine reports; "" = accepted
}{
	{line: `{"src":"1.2.3.4","dst":"5.6.7.8"}`, ok: true, src: "1.2.3.4", dst: "5.6.7.8", dms: 0},
	{line: `{"src":"0.0.0.0","dst":"255.255.255.255"}`, ok: true, src: "0.0.0.0", dst: "255.255.255.255"},
	{line: `{"src":"1.2.3.4","dst":"5.6.7.8","deadline_ms":250}`, ok: true, src: "1.2.3.4", dst: "5.6.7.8", dms: 250},
	{line: `{"src":"1.2.3.4","dst":"5.6.7.8","deadline_ms":0}`, ok: true, src: "1.2.3.4", dst: "5.6.7.8", dms: 0},
	// Everything below must be left to parseLineJSON.
	{line: `{"src": "1.2.3.4","dst":"5.6.7.8"}`, src: "1.2.3.4", dst: "5.6.7.8"},                                // whitespace
	{line: `{"dst":"5.6.7.8","src":"1.2.3.4"}`, src: "1.2.3.4", dst: "5.6.7.8"},                                 // reordered
	{line: `{"src":"+1.2.3.4","dst":"5.6.7.8"}`, errText: `src: bad IPv4 address "+1.2.3.4"`},                   // signed octet
	{line: `{"src":"1\u002e2.3.4","dst":"5.6.7.8"}`, src: "1.2.3.4", dst: "5.6.7.8"},                            // escaped address
	{line: `{"src":"01.2.3.4","dst":"5.6.7.8"}`, errText: `src: bad IPv4 address "01.2.3.4"`},                   // leading zero
	{line: `{"src":"1.2.3.256","dst":"5.6.7.8"}`, errText: `src: bad IPv4 address "1.2.3.256"`},                 // octet overflow
	{line: `{"src":"1.2.3","dst":"5.6.7.8"}`, errText: `src: bad IPv4 address "1.2.3"`},                         // 3 octets
	{line: `{"src":"1.2.3.4.5","dst":"5.6.7.8"}`, errText: `src: bad IPv4 address "1.2.3.4.5"`},                 // 5 octets
	{line: `{"src":"1.2.3.4","dst":"5.6.7.8","deadline_ms":-1}`, errText: `bad deadline_ms -1`},                 // negative
	{line: `{"src":"1.2.3.4","dst":"5.6.7.8","deadline_ms":1e3}`, errText: `bad pair: json: cannot unmarshal`},  // exponent
	{line: `{"src":"1.2.3.4","dst":"5.6.7.8","deadline_ms":01}`, errText: `bad pair: invalid character`},        // leading zero
	{line: `{"src":"1.2.3.4","dst":"5.6.7.8","deadline_ms":9999999999999999999}`, errText: `bad pair: json: c`}, // overflow
	{line: `{"src":"1.2.3.4","dst":"5.6.7.8"} `, src: "1.2.3.4", dst: "5.6.7.8"},                                // trailing space (callers trim)
	{line: `{"src":"1.2.3.4","dst":"5.6.7.8","x":1}`, src: "1.2.3.4", dst: "5.6.7.8"},                           // unknown field
	{line: `{"src":"1.2.3.4"}`, errText: `dst: bad IPv4 address ""`},
	{line: ``, errText: `bad pair: unexpected end of JSON input`},
	// A deadline past what a time.Duration holds is clamped to it.
	{line: `{"src":"1.2.3.4","dst":"5.6.7.8","deadline_ms":999999999999999999}`, ok: true, src: "1.2.3.4", dst: "5.6.7.8", dms: 999999999999999999},
	{line: `{"deadline_ms":999999999999999999,"src":"1.2.3.4","dst":"5.6.7.8"}`, src: "1.2.3.4", dst: "5.6.7.8", dms: maxDeadlineMS},
}

func TestParseBatchLine(t *testing.T) {
	for _, tc := range parseLineCases {
		l, ok := parseCanonLine([]byte(tc.line))
		if ok != tc.ok {
			t.Errorf("parseCanonLine(%q) ok=%v, want %v", tc.line, ok, tc.ok)
			continue
		}
		if ok {
			if l.SrcIP.String() != tc.src || l.DstIP.String() != tc.dst || l.DeadlineMS != tc.dms {
				t.Errorf("parseCanonLine(%q) = %+v, want %s,%s,%d", tc.line, l, tc.src, tc.dst, tc.dms)
			}
			// Round trip through the strict parser must agree with the
			// shared production parser.
			if want, err := netsim.ParseIPv4(tc.src); err != nil || want != l.SrcIP {
				t.Errorf("parseCanonLine(%q) src %v != ParseIPv4 %v (%v)", tc.line, l.SrcIP, want, err)
			}
		}
		// The door both daemons use: the one set of error texts, and the
		// request's addresses and deadline whichever parser read them.
		got, err := ParseLine([]byte(tc.line))
		switch {
		case tc.errText != "":
			if err == nil || !strings.HasPrefix(err.Error(), tc.errText) {
				t.Errorf("ParseLine(%q) error %v, want %q...", tc.line, err, tc.errText)
			}
		case err != nil:
			t.Errorf("ParseLine(%q): %v", tc.line, err)
		case got.SrcIP.String() != tc.src || got.DstIP.String() != tc.dst || got.DeadlineMS != min(tc.dms, maxDeadlineMS):
			t.Errorf("ParseLine(%q) = %+v, want the request's %s,%s,%d", tc.line, got, tc.src, tc.dst, min(tc.dms, maxDeadlineMS))
		}
	}
}

// FuzzParseBatchLine is the proof that one batch loop with two parsers
// serves one wire format, and that an echo need not keep the request's
// text: whenever the strict parser claims a line, encoding/json and the
// shared address parser accept it with the same addresses and deadline;
// and for every line ParseLine accepts, printing its addresses gives back,
// byte for byte, the strings its JSON holds.
func FuzzParseBatchLine(f *testing.F) {
	for _, tc := range parseLineCases {
		f.Add([]byte(tc.line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		if l, ok := parseCanonLine(line); ok {
			j, err := parseLineJSON(line)
			if err != nil {
				t.Fatalf("strict parser claimed %q, parseLineJSON rejects it: %v", line, err)
			}
			if j != l {
				t.Fatalf("%q: strict %+v != json %+v", line, l, j)
			}
		}
		l, err := ParseLine(line)
		if err != nil {
			return
		}
		var req struct{ Src, Dst string }
		if err := json.Unmarshal(line, &req); err != nil {
			t.Fatalf("ParseLine accepted %q, encoding/json rejects it: %v", line, err)
		}
		if got := string(l.SrcIP.AppendTo(nil)); got != req.Src {
			t.Fatalf("%q: src %q printed as %q", line, req.Src, got)
		}
		if got := string(l.DstIP.AppendTo(nil)); got != req.Dst {
			t.Fatalf("%q: dst %q printed as %q", line, req.Dst, got)
		}
	})
}

// TestParseCanonLineZeroAlloc: the strict parser is the per-line step of a
// warm window in both daemons.
func TestParseCanonLineZeroAlloc(t *testing.T) {
	line := []byte(`{"src":"10.20.30.40","dst":"250.251.252.253","deadline_ms":1500}`)
	var sink Line
	if allocs := testing.AllocsPerRun(100, func() { sink, _ = ParseLine(line) }); allocs != 0 {
		t.Fatalf("ParseLine allocates %v times on a canonical line (%+v)", allocs, sink)
	}
}
