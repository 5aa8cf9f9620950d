// Package feedback closes the paper's measurement feedback loop (§4.3.1,
// §5 "Client-side Measurements"): clients compare predicted against
// observed path performance, aggregate the error per destination cluster,
// and spend a small budget of corrective traceroutes on the destinations
// the atlas mispredicts worst. What the corrective measurements add to the
// FROM_SRC plane of the local atlas is worked out against the compiled
// atlas as a same-day atlas.Delta (Merge) and applied like any other, so
// predictions out of this host sharpen over time without a server round
// trip.
//
// The package has three parts, composable but independently usable:
//
//   - Tracker: aggregates observed-vs-predicted RTT samples per
//     destination cluster (EWMA relative error, sample counts, staleness)
//     and ranks the worst-mispredicted destinations.
//   - Corrector: a budgeted scheduler that turns the Tracker's ranking
//     into corrective traceroutes through a pluggable Prober and hands
//     the results to the merge.
//   - Report parsing: the NDJSON wire format of inanod's /v1/feedback
//     endpoint, hardened against hostile input (fuzzed).
//
// inano.Client owns a Tracker and wires the merge side (AddTraceroutes);
// internal/server exposes the loop over HTTP.
package feedback

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"inano/internal/netsim"
)

// Hop is one observed hop of a client-side traceroute. A zero IP records
// an unresponsive hop ('*').
type Hop struct {
	IP    netsim.IP
	RTTMS float64
}

// Traceroute is a forward path measured by a client host.
type Traceroute struct {
	Src  netsim.Prefix
	Dst  netsim.Prefix
	Hops []Hop
	// PredictedRTTMS records what the local atlas predicted for
	// (Src, Dst) when the traceroute was scheduled; together with the
	// measured destination-host RTT it yields the per-destination
	// residual correction (atlas.AdjustMS). Predicted reports whether a
	// prediction existed. Both optional: zero values just skip residual
	// learning.
	PredictedRTTMS float64
	Predicted      bool
}

// MeasuredRTT returns the end-to-end RTT the traceroute observed: the RTT
// of a final hop answered by the destination host itself. ok is false
// when the destination never answered.
func (tr *Traceroute) MeasuredRTT() (float64, bool) {
	if len(tr.Hops) == 0 {
		return 0, false
	}
	h := tr.Hops[len(tr.Hops)-1]
	if h.IP == 0 || netsim.PrefixOf(h.IP) != tr.Dst {
		return 0, false
	}
	return h.RTTMS, true
}

// Observation is one observed-vs-predicted performance report: a client
// measured RTTMS to Dst and tells the daemon so the error tracker can
// compare it with the prediction it would have served.
type Observation struct {
	Src   netsim.IP
	Dst   netsim.IP
	RTTMS float64
}

// Report-parsing limits. Exported so the server and the fuzz target agree
// on the hardening contract.
const (
	// MaxLineBytes caps one NDJSON observation line.
	MaxLineBytes = 4 << 10
	// MaxObservations caps observations accepted from one report.
	MaxObservations = 10_000
	// MaxObservedRTTMS rejects physically absurd RTT claims.
	MaxObservedRTTMS = 60_000
)

// ParseReport decodes an NDJSON observation report, one
// {"src":"a.b.c.d","dst":"e.f.g.h","rtt_ms":N} object per line. Blank
// lines are skipped. It is hardened for hostile input: per-line and
// per-report size caps, strict IPv4 parsing, finite positive RTTs. On a
// malformed line it returns the observations parsed so far together with
// an error naming the line — callers may account the good prefix and
// reject the rest.
func ParseReport(r io.Reader) ([]Observation, error) {
	return parseNDJSON(r, MaxLineBytes, MaxObservations, func(line []byte) (Observation, error) {
		var w struct {
			Src   string  `json:"src"`
			Dst   string  `json:"dst"`
			RTTMS float64 `json:"rtt_ms"`
		}
		if err := json.Unmarshal(line, &w); err != nil {
			return Observation{}, fmt.Errorf("bad observation: %v", err)
		}
		src, err := netsim.ParseIPv4(w.Src)
		if err != nil {
			return Observation{}, fmt.Errorf("src: %v", err)
		}
		dst, err := netsim.ParseIPv4(w.Dst)
		if err != nil {
			return Observation{}, fmt.Errorf("dst: %v", err)
		}
		if !ValidRTT(w.RTTMS) {
			return Observation{}, fmt.Errorf("bad rtt_ms %v", w.RTTMS)
		}
		return Observation{Src: src, Dst: dst, RTTMS: w.RTTMS}, nil
	})
}

// parseNDJSON is the report reader both NDJSON formats share. It scans r
// one line of at most maxLine bytes at a time, skips blank lines, and
// hands each other line, trimmed of surrounding space, to parse. On a line
// parse rejects, or one past maxCount items, it returns the items parsed
// so far with an error naming the line.
func parseNDJSON[T any](r io.Reader, maxLine, maxCount int, parse func(line []byte) (T, error)) ([]T, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1024), maxLine)
	var out []T
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if len(out) >= maxCount {
			return out, fmt.Errorf("line %d: report exceeds %d observations", lineNo, maxCount)
		}
		v, err := parse(line)
		if err != nil {
			return out, fmt.Errorf("line %d: %w", lineNo, err)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("line %d: %w", lineNo+1, err)
	}
	return out, nil
}
