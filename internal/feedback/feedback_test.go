package feedback

import (
	"strings"
	"testing"

	"inano/internal/netsim"
)

func TestParseReport(t *testing.T) {
	in := `{"src":"10.0.1.1","dst":"10.0.2.1","rtt_ms":42.5}

{"src":"10.0.1.1","dst":"10.0.3.1","rtt_ms":7}
`
	obs, err := ParseReport(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 2 {
		t.Fatalf("parsed %d observations, want 2", len(obs))
	}
	wantSrc := netsim.IP(10<<24 | 1<<8 | 1)
	if obs[0].Src != wantSrc || obs[0].RTTMS != 42.5 {
		t.Fatalf("observation 0: %+v", obs[0])
	}
}

func TestParseReportRejectsBadLines(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // substring of the error
	}{
		{"bad json", `{"src":`, "line 1"},
		{"bad src", `{"src":"999.0.0.1","dst":"10.0.0.1","rtt_ms":5}`, "src"},
		{"bad dst", `{"src":"10.0.0.1","dst":"nope","rtt_ms":5}`, "dst"},
		{"octal src", `{"src":"010.0.0.1","dst":"10.0.0.1","rtt_ms":5}`, "src"},
		{"zero rtt", `{"src":"10.0.0.1","dst":"10.0.0.2","rtt_ms":0}`, "rtt_ms"},
		{"negative rtt", `{"src":"10.0.0.1","dst":"10.0.0.2","rtt_ms":-4}`, "rtt_ms"},
		{"absurd rtt", `{"src":"10.0.0.1","dst":"10.0.0.2","rtt_ms":9e9}`, "rtt_ms"},
		{"missing rtt", `{"src":"10.0.0.1","dst":"10.0.0.2"}`, "rtt_ms"},
	}
	for _, c := range cases {
		if _, err := ParseReport(strings.NewReader(c.in)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestParseReportKeepsValidPrefix(t *testing.T) {
	in := `{"src":"10.0.1.1","dst":"10.0.2.1","rtt_ms":42.5}
garbage
{"src":"10.0.1.1","dst":"10.0.3.1","rtt_ms":7}
`
	obs, err := ParseReport(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line 2 failure", err)
	}
	if len(obs) != 1 {
		t.Fatalf("valid prefix lost: %d observations", len(obs))
	}
}

func TestParseReportBounds(t *testing.T) {
	// A line beyond MaxLineBytes fails cleanly instead of buffering forever.
	long := `{"src":"10.0.1.1","dst":"10.0.2.1","rtt_ms":5,"pad":"` +
		strings.Repeat("x", MaxLineBytes) + `"}`
	if _, err := ParseReport(strings.NewReader(long)); err == nil {
		t.Fatal("oversized line accepted")
	}
	// More than MaxObservations lines are cut off with an error.
	var b strings.Builder
	for i := 0; i <= MaxObservations; i++ {
		b.WriteString(`{"src":"10.0.1.1","dst":"10.0.2.1","rtt_ms":5}` + "\n")
	}
	obs, err := ParseReport(strings.NewReader(b.String()))
	if err == nil || !strings.Contains(err.Error(), "observations") {
		t.Fatalf("oversized report: err = %v", err)
	}
	if len(obs) != MaxObservations {
		t.Fatalf("accepted %d, want %d", len(obs), MaxObservations)
	}
}
