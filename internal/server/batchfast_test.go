package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	inano "inano"
	"inano/internal/api"
	"inano/internal/core"
	"inano/internal/netsim"
)

// parseBatchLineCases is TestParseBatchLine's table and
// FuzzParseBatchLine's seed corpus: api's own lines, here for what the
// server adds to the parser — the echo it prints for every line it takes.
var parseBatchLineCases = []struct {
	line     string
	ok       bool
	src, dst string // the echo when ok
	dms      int64
}{
	{line: `{"src":"1.2.3.4","dst":"5.6.7.8"}`, ok: true, src: "1.2.3.4", dst: "5.6.7.8", dms: 0},
	{line: `{"src":"0.0.0.0","dst":"255.255.255.255"}`, ok: true, src: "0.0.0.0", dst: "255.255.255.255"},
	{line: `{"src":"1.2.3.4","dst":"5.6.7.8","deadline_ms":250}`, ok: true, src: "1.2.3.4", dst: "5.6.7.8", dms: 250},
	{line: `{"src":"1.2.3.4","dst":"5.6.7.8","deadline_ms":0}`, ok: true, src: "1.2.3.4", dst: "5.6.7.8", dms: 0},
	// Everything below must be left to encoding/json.
	{line: `{"src": "1.2.3.4","dst":"5.6.7.8"}`},                                  // whitespace
	{line: `{"dst":"5.6.7.8","src":"1.2.3.4"}`},                                   // reordered
	{line: `{"src":"+1.2.3.4","dst":"5.6.7.8"}`},                                  // signed octet
	{line: `{"src":"1\u002e2.3.4","dst":"5.6.7.8"}`},                              // escaped address
	{line: `{"src":"01.2.3.4","dst":"5.6.7.8"}`},                                  // leading zero
	{line: `{"src":"1.2.3.256","dst":"5.6.7.8"}`},                                 // octet overflow
	{line: `{"src":"1.2.3","dst":"5.6.7.8"}`},                                     // 3 octets
	{line: `{"src":"1.2.3.4.5","dst":"5.6.7.8"}`},                                 // 5 octets
	{line: `{"src":"1.2.3.4","dst":"5.6.7.8","deadline_ms":-1}`},                  // negative
	{line: `{"src":"1.2.3.4","dst":"5.6.7.8","deadline_ms":1e3}`},                 // exponent
	{line: `{"src":"1.2.3.4","dst":"5.6.7.8","deadline_ms":01}`},                  // leading zero
	{line: `{"src":"1.2.3.4","dst":"5.6.7.8","deadline_ms":9999999999999999999}`}, // overflow
	{line: `{"src":"1.2.3.4","dst":"5.6.7.8"} `},                                  // trailing junk
	{line: `{"src":"1.2.3.4","dst":"5.6.7.8","x":1}`},                             // unknown field
	{line: `{"src":"1.2.3.4"}`},
	{line: ``},
}

func TestParseBatchLine(t *testing.T) {
	for _, tc := range parseBatchLineCases {
		if !tc.ok {
			continue // FuzzParseBatchLine's seeds check every line's echo
		}
		l, err := api.ParseLine([]byte(tc.line))
		if err != nil {
			t.Errorf("ParseLine(%q): %v", tc.line, err)
			continue
		}
		if echo := echoOf(t, l); echo.Src != tc.src || echo.Dst != tc.dst || l.DeadlineMS != tc.dms {
			t.Errorf("ParseLine(%q) = %s,%s,%d want %s,%s,%d",
				tc.line, echo.Src, echo.Dst, l.DeadlineMS, tc.src, tc.dst, tc.dms)
		}
	}
}

// echoOf is the src/dst an answer line for l carries.
func echoOf(t testing.TB, l api.Line) (echo struct{ Src, Dst string }) {
	t.Helper()
	a := answerLine{srcIP: l.SrcIP, dstIP: l.DstIP}
	if err := json.Unmarshal(appendResultLine(nil, &a, 0, nil, nil), &echo); err != nil {
		t.Fatal(err)
	}
	return echo
}

// queryResult is the answer for one (src, dst) pair, a /v1/query body and a
// /v1/batch line alike, as encoding/json writes and reads it: the reference
// for appendResultLine, and the tests' decoder of answers. FwdMS+RevMS
// always sum to RTTMS — a cheap client-side integrity check that an answer
// was not torn.
type queryResult struct {
	Src      string       `json:"src"`
	Dst      string       `json:"dst"`
	Found    bool         `json:"found"`
	RTTMS    float64      `json:"rtt_ms,omitempty"`
	LossRate float64      `json:"loss_rate,omitempty"`
	FwdMS    float64      `json:"fwd_ms,omitempty"`
	RevMS    float64      `json:"rev_ms,omitempty"`
	FwdAS    []netsim.ASN `json:"fwd_as_path,omitempty"`
	RevAS    []netsim.ASN `json:"rev_as_path,omitempty"`
	Day      int          `json:"day"`
	Error    string       `json:"error,omitempty"`
}

// resultFor fills the wire struct encoding/json reads: the reference the
// hand-rolled encoder and the handlers' bodies are compared against.
func resultFor(src, dst string, day int, info inano.PathInfo, withPaths bool) queryResult {
	res := queryResult{Src: src, Dst: dst, Found: info.Found, Day: day}
	if !info.Found {
		return res
	}
	res.RTTMS = info.RTTMS
	res.LossRate = info.LossRate
	res.FwdMS = info.Fwd.LatencyMS
	res.RevMS = info.Rev.LatencyMS
	if withPaths {
		res.FwdAS = info.Fwd.ASPath
		res.RevAS = info.Rev.ASPath
	}
	return res
}

// encoderLine is the line json.Encoder writes for res.
func encoderLine(t testing.TB, res queryResult) []byte {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(res); err != nil {
		t.Fatal(err)
	}
	return want.Bytes()
}

// TestAppendResultLineMatchesEncoder pins the hand-rolled answer encoder
// to encoding/json byte for byte, across found/not-found, expired, zero
// and extreme float values, and with AS paths (a /v1/query answer: nil,
// empty, one-hop, long) and without (a /v1/batch line) — the reference for
// the one encoder every answer goes through.
func TestAppendResultLineMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	floats := []float64{0, 0.05, 12.5, 1.0 / 3, 9.999999999e-7, 1e-7, 3e21, 123456789.000001}
	long := make([]netsim.ASN, 40)
	for i := range long {
		long[i] = netsim.ASN(rng.Uint32())
	}
	paths := [][]netsim.ASN{nil, {}, {7}, {0, 4294967295}, long}
	randInfo := func() inano.PathInfo {
		var info inano.PathInfo
		info.Found = rng.Intn(4) > 0
		if info.Found {
			info.RTTMS = floats[rng.Intn(len(floats))]
			info.LossRate = floats[rng.Intn(len(floats))]
			info.Fwd.LatencyMS = floats[rng.Intn(len(floats))]
			info.Rev.LatencyMS = floats[rng.Intn(len(floats))]
		}
		// One leg alone may have found a path: its AS path must not show.
		info.Fwd.ASPath = paths[rng.Intn(len(paths))]
		info.Rev.ASPath = paths[rng.Intn(len(paths))]
		return info
	}
	for trial := 0; trial < 4000; trial++ {
		info := randInfo()
		e := answerLine{srcIP: inano.IP(rng.Uint32()), dstIP: inano.IP(rng.Uint32())}
		expired := trial%5 == 0
		if expired {
			info = inano.PathInfo{}
		}
		withPaths := trial%2 == 0
		day := rng.Intn(1000)

		e.answer(&info, expired)
		var fwdAS, revAS []netsim.ASN
		if withPaths {
			fwdAS, revAS = info.Fwd.ASPath, info.Rev.ASPath
		}
		got := appendResultLine(nil, &e, day, fwdAS, revAS)

		res := resultFor(e.srcIP.String(), e.dstIP.String(), day, info, withPaths)
		if expired {
			res.Error = "deadline_ms exceeded"
		}
		if want := encoderLine(t, res); !bytes.Equal(got, want) {
			t.Fatalf("trial %d:\nappend  %q\nencoder %q\ninfo %+v", trial, got, want, info)
		}
	}
}

// FuzzParseBatchLine is the proof, seen from the wire, that an echo need
// not keep the request's text: for every line api.ParseLine takes,
// the answer line the server writes is, byte for byte, what encoding/json
// writes for an answer echoing the strings the request's JSON holds.
func FuzzParseBatchLine(f *testing.F) {
	for _, tc := range parseBatchLineCases {
		f.Add([]byte(tc.line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		l, err := api.ParseLine(line)
		if err != nil {
			return
		}
		var req struct{ Src, Dst string }
		if err := json.Unmarshal(line, &req); err != nil {
			t.Fatalf("ParseLine took %q, encoding/json rejects it: %v", line, err)
		}
		info := inano.PathInfo{Found: true, RTTMS: 3, LossRate: 0.5}
		info.Fwd.LatencyMS, info.Rev.LatencyMS = 1, 2
		a := answerLine{srcIP: l.SrcIP, dstIP: l.DstIP}
		a.answer(&info, false)
		got := appendResultLine(nil, &a, 4, nil, nil)
		if want := encoderLine(t, resultFor(req.Src, req.Dst, 4, info, false)); !bytes.Equal(got, want) {
			t.Fatalf("%q:\nappend  %q\nencoder %q", line, got, want)
		}
	})
}

// postBatch streams body to /v1/batch and returns the 200 response body.
func postBatch(t testing.TB, url string, body io.Reader) string {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, out)
	}
	return string(out)
}

// TestBatchFastPathParity sends one mixed stream — canonical lines,
// per-pair deadlines, unknown destinations, escaped addresses,
// blank lines — twice: as written, and with every canonical line rewritten
// (fields swapped, whitespace added) so that only encoding/json will take
// it. The two response bodies must be byte-identical.
func TestBatchFastPathParity(t *testing.T) {
	f := buildFixture(t, 210)
	_, ts := start(t, f, nil)

	var canon, generic strings.Builder
	for i := 0; i < 40; i++ {
		src := ipStr(f.vps[i%len(f.vps)])
		dst := ipStr(f.targets[(i*7)%len(f.targets)])
		switch i % 4 {
		case 0:
			fmt.Fprintf(&canon, "{\"src\":%q,\"dst\":%q}\n", src, dst)
			fmt.Fprintf(&generic, "{\"dst\": %q, \"src\": %q}\n", dst, src)
		case 1: // generous per-pair deadline
			fmt.Fprintf(&canon, "{\"src\":%q,\"dst\":%q,\"deadline_ms\":60000}\n", src, dst)
			fmt.Fprintf(&generic, "{\"deadline_ms\": 60000, \"src\": %q, \"dst\": %q}\n", src, dst)
		case 2: // unknown destination: found=false line
			fmt.Fprintf(&canon, "{\"src\":%q,\"dst\":\"255.255.255.254\"}\n", src)
			fmt.Fprintf(&generic, " {\"src\":%q , \"dst\":\"255.255.255.254\"}\n", src)
		case 3: // escaped address: never canonical, decodes to the same address
			line := fmt.Sprintf("{\"src\":\"%s\",\"dst\":%q}\n\n", strings.Replace(src, ".", `\u002e`, 1), dst)
			canon.WriteString(line)
			generic.WriteString(line)
		}
	}
	for _, line := range strings.Split(generic.String(), "\n") {
		line = strings.TrimSpace(line)
		l, err := api.ParseLine([]byte(line))
		// Every line the strict parser claims starts like this.
		canonical := fmt.Sprintf(`{"src":"%v","dst":"%v"`, l.SrcIP, l.DstIP)
		if err == nil && strings.HasPrefix(line, canonical) {
			t.Fatalf("rewritten line %q is still canonical", line)
		}
	}
	a := postBatch(t, ts.URL+"/v1/batch?window=7", strings.NewReader(canon.String()))
	b := postBatch(t, ts.URL+"/v1/batch?window=7", strings.NewReader(generic.String()))
	if a != b {
		t.Fatalf("canonical and rewritten batch bodies differ:\ncanonical:\n%s\nrewritten:\n%s", a, b)
	}
	if n := strings.Count(a, "\n"); n != 40 {
		t.Fatalf("batch answered %d lines, want 40", n)
	}
}

// TestBatchFastPathExpiredParity checks the expired-pair line shape —
// src/dst echoed, found false, the deadline error — and that a canonical
// and a rewritten request line produce it byte for byte alike.
func TestBatchFastPathExpiredParity(t *testing.T) {
	f := buildFixture(t, 211)
	_, ts := start(t, f, nil)
	// deadline_ms:1 expires during window buffering (the server only
	// answers at flush, and the producer holds the stream open past the
	// deadline), so the pair comes back expired; the second pair has no
	// deadline and must still answer.
	s0, d0, s1, d1 := ipStr(f.vps[0]), ipStr(f.targets[1]), ipStr(f.vps[1]), ipStr(f.targets[2])
	post := func(body string) string {
		pr, pw := io.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			io.WriteString(pw, body)
			time.Sleep(100 * time.Millisecond) // let deadline_ms=1 lapse
			pw.Close()                         // EOF triggers the flush
		}()
		out := postBatch(t, ts.URL+"/v1/batch", pr)
		<-done
		return out
	}
	a := post(fmt.Sprintf("{\"src\":%q,\"dst\":%q,\"deadline_ms\":1}\n{\"src\":%q,\"dst\":%q}\n", s0, d0, s1, d1))
	b := post(fmt.Sprintf("{\"deadline_ms\": 1, \"dst\":%q, \"src\":%q}\n{\"dst\":%q,\"src\":%q}\n", d0, s0, d1, s1))
	if a != b {
		t.Fatalf("expired-pair bodies differ:\ncanonical:\n%s\nrewritten:\n%s", a, b)
	}
	if !strings.Contains(a, "deadline_ms exceeded") {
		t.Fatalf("expired pair not reported: %s", a)
	}
}

// loopReader reads body over and over, without end.
type loopReader struct {
	body []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.body[r.off:])
	r.off = (r.off + n) % len(r.body)
	return n, nil
}

// TestBatchFastPathZeroAlloc is the CI allocation gate for the streamed
// batch loop on canonical lines, mirroring TestWarmQueryZeroAlloc: one warm
// window's whole step — each line read off the stream and parsed into a
// slot (api.Batch.Next), StreamBatch run, answers copied out, the window
// encoded into the slot's reused buffer — must not allocate. It drives the
// same functions handleBatch and its stage do, outside HTTP and on one
// goroutine.
func TestBatchFastPathZeroAlloc(t *testing.T) {
	f := buildFixture(t, 212)
	snap := f.client.Snapshot()
	sb := snap.StreamBatch(true)
	day := snap.Day()

	const window = 64
	var body []byte
	for i := 0; i < window; i++ {
		body = fmt.Appendf(body, "{\"src\":%q,\"dst\":%q}\n",
			ipStr(f.vps[i%len(f.vps)]), ipStr(f.targets[(i*7)%len(f.targets)]))
	}
	b, rf := api.ReadBatch(newDuplexWriter(), httptest.NewRequest(http.MethodPost, "/v1/batch", &loopReader{body: body}), window)
	if rf != nil {
		t.Fatal(rf)
	}
	var reqs []core.PairReq
	var slot batchSlot
	var sink int
	step := func() {
		reqs, slot.lines = reqs[:0], slot.lines[:0]
		for len(reqs) < b.Window {
			_, l, ok := b.Next()
			if !ok {
				t.Fatal(b.Err())
			}
			reqs = append(reqs, inano.PairOf(l.SrcIP, l.DstIP))
			slot.lines = append(slot.lines, answerLine{srcIP: l.SrcIP, dstIP: l.DstIP})
		}
		infos, expired, err := sb.Run(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		copyAnswers(slot.lines, infos, expired)
		slot.buf = appendWindow(slot.buf[:0], slot.lines, day)
		sink += len(slot.buf)
	}
	step() // warm trees + buffers
	allocs := testing.AllocsPerRun(50, step)
	if allocs != 0 {
		t.Fatalf("warm canonical batch window allocates %v times, want 0 (sink %d)", allocs, sink)
	}
}

// BenchmarkBatchStream measures the streamed /v1/batch serving loop
// end-to-end over HTTP: 64-pair windows, warm trees, on canonical lines
// (the strict parser's) and on the same pairs with the fields swapped
// (encoding/json's). pairs/s = 64 * window ops/s.
func BenchmarkBatchStream(b *testing.B) {
	for _, bc := range []struct{ name, format string }{
		{"canonical", "{\"src\":%q,\"dst\":%q}\n"},
		{"generic", "{\"dst\":%[2]q,\"src\":%[1]q}\n"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			f := buildFixture(b, 212)
			_, ts := start(b, f, func(c *Config) { c.StreamWindow = 64 })
			var body bytes.Buffer
			for i := 0; i < 64; i++ {
				fmt.Fprintf(&body, bc.format,
					ipStr(f.vps[i%len(f.vps)]), ipStr(f.targets[(i*7)%len(f.targets)]))
			}
			lines := body.Bytes()
			run := func() {
				if out := postBatch(b, ts.URL+"/v1/batch", bytes.NewReader(lines)); strings.Count(out, "\n") != 64 {
					b.Fatalf("answered %d lines, want 64", strings.Count(out, "\n"))
				}
			}
			run() // warm trees
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
