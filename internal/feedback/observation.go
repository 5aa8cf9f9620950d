package feedback

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"inano/internal/netsim"
)

// Upstream observation sharing (the paper's §5 loop closed in both
// directions): beyond patching its own atlas copy, a client ships its
// corrective observations to the central build, which folds the robustly
// aggregated residuals into the next day's delta — so every peer benefits
// from any peer's probes. This file defines the NDJSON wire format of
// inanod's POST /v1/observations endpoint; Uploader batches and ships it,
// Aggregator ingests it server-side.

// UpstreamObservation is one corrective observation a client shares with
// the build server: the pair it measured, the end-to-end RTT the
// destination host answered with, the RTT the client's atlas predicted
// when the probe was scheduled, and (optionally) the traceroute hops
// behind the measurement.
type UpstreamObservation struct {
	Src, Dst netsim.IP
	// RTTMS is the measured end-to-end round-trip time.
	RTTMS float64
	// PredictedMS is the client's prediction for the pair at probe time;
	// zero when no prediction existed. An observation must carry a
	// residual (positive PredictedMS), hops, or both — one with neither
	// tells the aggregate nothing and is rejected at parse.
	PredictedMS float64
	// Hops are the traceroute hops behind the measurement (optional,
	// bounded by MaxObservationHops; a zero IP is an unresponsive hop).
	Hops []Hop
}

// ResidualMS is the signed prediction residual the observation carries:
// measured minus predicted RTT.
func (o *UpstreamObservation) ResidualMS() float64 { return o.RTTMS - o.PredictedMS }

// Observation-report limits. Exported so the server, the uploader, and the
// fuzz target agree on the hardening contract.
const (
	// MaxObservationLineBytes caps one NDJSON observation line (hops
	// included).
	MaxObservationLineBytes = 16 << 10
	// MaxUpstreamObservations caps observations accepted from one report.
	MaxUpstreamObservations = 10_000
	// MaxObservationHops caps the hop list of one observation.
	MaxObservationHops = 64
)

// obsWire is the JSON shape of one observation line.
type obsWire struct {
	Src         string       `json:"src"`
	Dst         string       `json:"dst"`
	RTTMS       float64      `json:"rtt_ms"`
	PredictedMS float64      `json:"predicted_ms"`
	Hops        []obsHopWire `json:"hops,omitempty"`
}

type obsHopWire struct {
	IP    string  `json:"ip"` // "" = unresponsive ('*')
	RTTMS float64 `json:"rtt_ms"`
}

// EncodeObservations writes observations as NDJSON, one line each — the
// exact body POST /v1/observations accepts.
func EncodeObservations(w io.Writer, obs []UpstreamObservation) error {
	bw := bufio.NewWriter(w)
	for i := range obs {
		o := &obs[i]
		line := obsWire{
			Src:         o.Src.String(),
			Dst:         o.Dst.String(),
			RTTMS:       o.RTTMS,
			PredictedMS: o.PredictedMS,
		}
		for _, h := range o.Hops {
			hw := obsHopWire{RTTMS: h.RTTMS}
			if h.IP != 0 {
				hw.IP = h.IP.String()
			}
			line.Hops = append(line.Hops, hw)
		}
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		if _, err := bw.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseObservationReport decodes an NDJSON upstream-observation report,
// one {"src","dst","rtt_ms","predicted_ms","hops":[...]} object per line.
// Blank lines are skipped. Hardened for hostile input like ParseReport:
// per-line and per-report caps, strict IPv4 parsing, finite positive RTTs
// and predictions, bounded hop lists. On a malformed line it returns the
// observations parsed so far together with an error naming the line —
// callers may account the good prefix and reject the rest.
func ParseObservationReport(r io.Reader) ([]UpstreamObservation, error) {
	return parseNDJSON(r, MaxObservationLineBytes, MaxUpstreamObservations, parseObservationLine)
}

// parseObservationLine validates one line of an observation report.
func parseObservationLine(line []byte) (UpstreamObservation, error) {
	var w obsWire
	if err := json.Unmarshal(line, &w); err != nil {
		return UpstreamObservation{}, fmt.Errorf("bad observation: %v", err)
	}
	src, err := netsim.ParseIPv4(w.Src)
	if err != nil {
		return UpstreamObservation{}, fmt.Errorf("src: %v", err)
	}
	dst, err := netsim.ParseIPv4(w.Dst)
	if err != nil {
		return UpstreamObservation{}, fmt.Errorf("dst: %v", err)
	}
	if !ValidRTT(w.RTTMS) {
		return UpstreamObservation{}, fmt.Errorf("bad rtt_ms %v", w.RTTMS)
	}
	// predicted_ms is optional when the line carries hops (a
	// structure-only observation from a pair the client could not
	// predict); a line with neither residual nor hops says nothing.
	if w.PredictedMS != 0 && !ValidRTT(w.PredictedMS) {
		return UpstreamObservation{}, fmt.Errorf("bad predicted_ms %v", w.PredictedMS)
	}
	if w.PredictedMS == 0 && len(w.Hops) == 0 {
		return UpstreamObservation{}, fmt.Errorf("observation carries neither predicted_ms nor hops")
	}
	if len(w.Hops) > MaxObservationHops {
		return UpstreamObservation{}, fmt.Errorf("%d hops exceeds %d", len(w.Hops), MaxObservationHops)
	}
	o := UpstreamObservation{Src: src, Dst: dst, RTTMS: w.RTTMS, PredictedMS: w.PredictedMS}
	for i, hw := range w.Hops {
		h := Hop{RTTMS: hw.RTTMS}
		if hw.IP != "" {
			if h.IP, err = netsim.ParseIPv4(hw.IP); err != nil {
				return UpstreamObservation{}, fmt.Errorf("hop %d: %v", i, err)
			}
		}
		if hw.RTTMS < 0 || math.IsNaN(hw.RTTMS) || hw.RTTMS > MaxObservedRTTMS {
			return UpstreamObservation{}, fmt.Errorf("hop %d: bad rtt_ms %v", i, hw.RTTMS)
		}
		o.Hops = append(o.Hops, h)
	}
	return o, nil
}

// ValidRTT bounds a millisecond value: finite, positive, physically sane.
// It is the one rule every door that takes an observed RTT applies: the
// report parsers, the tracker, and the library's ObserveRTT.
func ValidRTT(ms float64) bool {
	return ms > 0 && !math.IsInf(ms, 0) && ms <= MaxObservedRTTMS
}

// ObservationFromTraceroute extracts the upstream observation a corrective
// traceroute carries. ok is false when the traceroute has no measured
// end-to-end RTT (the destination never answered): without a measurement
// there is neither a residual nor a trustworthy tail to share. A
// traceroute scheduled *without* a prediction still ships — as a
// structure-only observation (zero PredictedMS, hops attached): a pair
// the local atlas cannot predict is exactly the coverage the structural
// fold exists to grow.
func ObservationFromTraceroute(tr *Traceroute) (UpstreamObservation, bool) {
	measured, ok := tr.MeasuredRTT()
	if !ok || !ValidRTT(measured) {
		return UpstreamObservation{}, false
	}
	o := UpstreamObservation{
		Src:   tr.Src.HostIP(),
		Dst:   tr.Dst.HostIP(),
		RTTMS: measured,
	}
	if tr.Predicted && ValidRTT(tr.PredictedRTTMS) {
		o.PredictedMS = tr.PredictedRTTMS
	}
	hops := tr.Hops
	if len(hops) > MaxObservationHops {
		// Keep the tail: the destination-side hops carry the residual's
		// provenance; the head is the reporter's own access path.
		hops = hops[len(hops)-MaxObservationHops:]
	}
	o.Hops = append([]Hop(nil), hops...)
	if o.PredictedMS == 0 && len(o.Hops) < 2 {
		// No residual and no infrastructure tail (the one hop is the
		// destination itself): nothing the aggregate could use.
		return UpstreamObservation{}, false
	}
	return o, true
}
