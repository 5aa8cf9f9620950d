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
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

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
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1024), MaxLineBytes)
	var out []Observation
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if len(out) >= MaxObservations {
			return out, fmt.Errorf("line %d: report exceeds %d observations", lineNo, MaxObservations)
		}
		var w struct {
			Src   string  `json:"src"`
			Dst   string  `json:"dst"`
			RTTMS float64 `json:"rtt_ms"`
		}
		if err := json.Unmarshal([]byte(line), &w); err != nil {
			return out, fmt.Errorf("line %d: bad observation: %v", lineNo, err)
		}
		src, err := ParseIPv4(w.Src)
		if err != nil {
			return out, fmt.Errorf("line %d: src: %v", lineNo, err)
		}
		dst, err := ParseIPv4(w.Dst)
		if err != nil {
			return out, fmt.Errorf("line %d: dst: %v", lineNo, err)
		}
		if !(w.RTTMS > 0) || math.IsInf(w.RTTMS, 0) || w.RTTMS > MaxObservedRTTMS {
			return out, fmt.Errorf("line %d: bad rtt_ms %v", lineNo, w.RTTMS)
		}
		out = append(out, Observation{Src: src, Dst: dst, RTTMS: w.RTTMS})
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("line %d: %w", lineNo+1, err)
	}
	return out, nil
}

// ParseIPv4 parses a strict dotted-quad IPv4 address (no leading zeros,
// exactly four octets). It delegates to netsim.ParseIPv4 so ingest and
// the cluster router agree on one parser.
func ParseIPv4(s string) (netsim.IP, error) {
	return netsim.ParseIPv4(s)
}
