package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	inano "inano"
	"inano/sim"
)

// atlasFile writes a tiny world's day-0 atlas and returns its path, a
// client over the same atlas, and the world's vantage points and targets.
func atlasFile(t *testing.T) (path string, c *inano.Client, vps, targets []inano.Prefix) {
	t.Helper()
	w := sim.NewWorld(sim.Tiny, 42)
	vps, targets = w.VantagePoints(12), w.EdgePrefixes()
	a := w.Measure(sim.CampaignOptions{VPs: vps, Targets: targets}).BuildAtlas()
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), "atlas.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, inano.FromAtlas(a), vps, targets
}

// query runs the command and returns its exit code and both streams.
func query(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestSingleDestination(t *testing.T) {
	path, c, vps, targets := atlasFile(t)
	src, dst := vps[0].HostIP(), targets[3].HostIP()
	want := c.Query(src, dst)
	if !want.Found {
		t.Fatal("fixture pair has no prediction")
	}
	code, out, errOut := query("-atlas", path, src.String(), dst.String())
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	for _, line := range []string{
		"atlas day 0 loaded",
		fmt.Sprintf("RTT estimate:   %.1f ms", want.RTTMS),
		fmt.Sprintf("forward AS path: %v ", want.Fwd.ASPath),
		fmt.Sprintf("reverse AS path: %v ", want.Rev.ASPath),
	} {
		if !strings.Contains(out, line) {
			t.Errorf("output lacks %q:\n%s", line, out)
		}
	}

	// A destination the atlas cannot place: one line, exit 1.
	code, out, _ = query("-atlas", path, src.String(), "255.255.255.254")
	if code != 1 || !strings.Contains(out, "no prediction") {
		t.Fatalf("unknown destination: exit %d, output %q", code, out)
	}
}

// TestRankingTable: several destinations print one row each, every row the
// answer the single query gives, predictable rows cheapest first and the
// unpredictable after them in argument order.
func TestRankingTable(t *testing.T) {
	path, c, vps, targets := atlasFile(t)
	src := vps[0].HostIP()
	args := []string{"-atlas", path, src.String(), "255.255.255.254"}
	for _, d := range targets[:5] {
		args = append(args, d.HostIP().String())
	}
	args = append(args, "255.255.254.1")
	code, out, errOut := query(args...)
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	rows := strings.Split(strings.TrimSpace(out), "\n")[2:] // after the load line and the header
	if len(rows) != 7 {
		t.Fatalf("%d rows for 7 destinations:\n%s", len(rows), out)
	}
	lastRTT := 0.0
	for _, row := range rows[:5] {
		var dst string
		var rtt float64
		if _, err := fmt.Sscan(row, &dst, &rtt); err != nil {
			t.Fatalf("row %q: %v", row, err)
		}
		var ip inano.IP
		for _, d := range targets[:5] {
			if d.HostIP().String() == dst {
				ip = d.HostIP()
			}
		}
		want := c.Query(src, ip)
		if !want.Found || fmt.Sprintf("%.1f", want.RTTMS) != fmt.Sprintf("%.1f", rtt) {
			t.Errorf("row %q: single query answers found=%v rtt=%.1f", row, want.Found, want.RTTMS)
		}
		if rtt < lastRTT {
			t.Errorf("row %q ranks after a costlier one (%.1f)", row, lastRTT)
		}
		lastRTT = rtt
	}
	for i, dst := range []string{"255.255.255.254", "255.255.254.1"} {
		if row := rows[5+i]; !strings.HasPrefix(row, dst+" ") || !strings.HasSuffix(row, "no prediction") {
			t.Errorf("row %d = %q, want the no-prediction row of %s", 5+i, row, dst)
		}
	}

	// Nothing predictable at all: the table still prints, exit 1.
	if code, _, _ := query("-atlas", path, src.String(), "255.255.255.254", "255.255.254.1"); code != 1 {
		t.Fatalf("all-unknown ranking: exit %d, want 1", code)
	}
}

func TestList(t *testing.T) {
	path, c, _, _ := atlasFile(t)
	code, out, errOut := query("-atlas", path, "-list")
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	snap := c.Snapshot()
	n := 0
	for p := range snap.Prefixes() {
		cl, _ := snap.AttachmentCluster(p)
		if want := fmt.Sprintf("%s -> cluster %d (AS%d)\n", p, cl, snap.OriginAS(p)); !strings.Contains(out, want) {
			t.Fatalf("listing lacks %q", want)
		}
		n++
	}
	if got := strings.Count(out, "\n"); got != n+1 {
		t.Fatalf("listing has %d lines for %d prefixes", got, n)
	}
}

func TestFailures(t *testing.T) {
	path, _, vps, targets := atlasFile(t)
	src, dst := vps[0].HostIP().String(), targets[3].HostIP().String()
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"unknown flag", []string{"-atlas", path, "-nope", src, dst}, 2, "flag provided but not defined"},
		{"too few arguments", []string{"-atlas", path, src}, 2, "usage: inano-query"},
		{"bad source", []string{"-atlas", path, "10.0.0", dst}, 1, `bad IPv4 address "10.0.0"`},
		{"bad destination", []string{"-atlas", path, src, dst, "10.0.0.256"}, 1, `bad IPv4 address "10.0.0.256"`},
		// The daemon's parser: no leading zero, no sign.
		{"leading zero", []string{"-atlas", path, "0" + src, dst}, 1, `bad IPv4 address "0` + src + `"`},
		{"signed octet", []string{"-atlas", path, src, "+" + dst}, 1, `bad IPv4 address "+` + dst + `"`},
		{"missing atlas", []string{"-atlas", filepath.Join(t.TempDir(), "none.bin"), src, dst}, 1, "no such file"},
		{"expired timeout", []string{"-atlas", path, "-timeout", "1ns", src, dst}, 1, "query aborted"},
	} {
		code, _, errOut := query(tc.args...)
		if code != tc.code || !strings.Contains(errOut, tc.stderr) {
			t.Errorf("%s: exit %d, stderr %q; want exit %d and %q", tc.name, code, errOut, tc.code, tc.stderr)
		}
	}
}
