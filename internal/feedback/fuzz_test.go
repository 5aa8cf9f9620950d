package feedback

import (
	"strings"
	"testing"

	"inano/internal/netsim"
)

// FuzzFeedbackReport feeds the /v1/feedback NDJSON parser arbitrary
// bytes. The parser must never panic and must respect its hardening
// bounds regardless of input: at most MaxObservations results, every
// accepted observation well-formed (valid IPs re-format, RTT positive
// and sane).
func FuzzFeedbackReport(f *testing.F) {
	f.Add([]byte(`{"src":"10.0.1.1","dst":"10.0.2.1","rtt_ms":42.5}`))
	f.Add([]byte(`{"src":"10.0.1.1","dst":"10.0.2.1","rtt_ms":42.5}` + "\n" +
		`{"src":"1.2.3.4","dst":"4.3.2.1","rtt_ms":0.1}`))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`{"src":"10.0.1.1"`))
	f.Add([]byte(`{"src":"10.0.1.1","dst":"10.0.2.1","rtt_ms":-1}`))
	f.Add([]byte(`{"src":"10.0.1.1","dst":"10.0.2.1","rtt_ms":1e308}`))
	f.Add([]byte(strings.Repeat(`{"src":"9.9.9.9","dst":"8.8.8.8","rtt_ms":1}`+"\n", 64)))

	f.Fuzz(func(t *testing.T, data []byte) {
		obs, _ := ParseReport(strings.NewReader(string(data)))
		if len(obs) > MaxObservations {
			t.Fatalf("parser exceeded MaxObservations: %d", len(obs))
		}
		for i, o := range obs {
			if !(o.RTTMS > 0) || o.RTTMS > MaxObservedRTTMS {
				t.Fatalf("observation %d has out-of-bounds rtt %v", i, o.RTTMS)
			}
			// Accepted IPs must round-trip through the strict parser.
			if back, err := netsim.ParseIPv4(o.Src.String()); err != nil || back != o.Src {
				t.Fatalf("observation %d src does not round-trip: %v", i, o.Src)
			}
		}
	})
}

// FuzzObservationReport feeds the /v1/observations NDJSON parser
// arbitrary bytes. Like the feedback-report target it must never panic
// and every accepted observation must satisfy the hardening contract:
// bounded counts, sane RTTs and predictions, bounded well-formed hops.
func FuzzObservationReport(f *testing.F) {
	f.Add([]byte(`{"src":"10.0.1.1","dst":"10.0.2.1","rtt_ms":42.5,"predicted_ms":40}`))
	f.Add([]byte(`{"src":"10.0.1.1","dst":"10.0.2.1","rtt_ms":42.5,"predicted_ms":40,"hops":[{"ip":"10.0.1.2","rtt_ms":1},{"ip":"","rtt_ms":0}]}`))
	f.Add([]byte(`{"src":"10.0.1.1","dst":"10.0.2.1","rtt_ms":42.5}`))
	f.Add([]byte(`{"src":"10.0.1.1","dst":"10.0.2.1","rtt_ms":42.5,"hops":[{"ip":"10.0.1.2","rtt_ms":1}]}`))
	f.Add([]byte(`{"src":"10.0.1.1","dst":"10.0.2.1","rtt_ms":1,"predicted_ms":1e308}`))
	f.Add([]byte(`{"src":"10.0.1.1","dst":"10.0.2.1","rtt_ms":1,"predicted_ms":2,"hops":[{"ip":"x","rtt_ms":-1}]}`))
	f.Add([]byte("\n\n"))
	f.Add([]byte(strings.Repeat(`{"src":"9.9.9.9","dst":"8.8.8.8","rtt_ms":1,"predicted_ms":1}`+"\n", 64)))

	f.Fuzz(func(t *testing.T, data []byte) {
		obs, _ := ParseObservationReport(strings.NewReader(string(data)))
		if len(obs) > MaxUpstreamObservations {
			t.Fatalf("parser exceeded MaxUpstreamObservations: %d", len(obs))
		}
		for i, o := range obs {
			if !(o.RTTMS > 0) || o.RTTMS > MaxObservedRTTMS {
				t.Fatalf("observation %d has out-of-bounds rtt %v", i, o.RTTMS)
			}
			// predicted_ms is optional for structure-only observations:
			// zero is valid iff the line carries hops, and any nonzero
			// value must be a sane RTT.
			if o.PredictedMS == 0 {
				if len(o.Hops) == 0 {
					t.Fatalf("observation %d carries neither prediction nor hops", i)
				}
			} else if !(o.PredictedMS > 0) || o.PredictedMS > MaxObservedRTTMS {
				t.Fatalf("observation %d has out-of-bounds prediction %v", i, o.PredictedMS)
			}
			if len(o.Hops) > MaxObservationHops {
				t.Fatalf("observation %d has %d hops", i, len(o.Hops))
			}
			for j, h := range o.Hops {
				if h.RTTMS < 0 || h.RTTMS > MaxObservedRTTMS {
					t.Fatalf("observation %d hop %d rtt %v", i, j, h.RTTMS)
				}
			}
			if back, err := netsim.ParseIPv4(o.Dst.String()); err != nil || back != o.Dst {
				t.Fatalf("observation %d dst does not round-trip: %v", i, o.Dst)
			}
		}
	})
}
