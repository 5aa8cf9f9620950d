package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestGateVerdicts(t *testing.T) {
	var errb bytes.Buffer
	g := &gate{stderr: &errb}
	if !g.Check(true, "fine") {
		t.Fatal("passing check returned false")
	}
	if g.Code() != 0 || errb.Len() != 0 {
		t.Fatalf("clean gate: code %d, stderr %q", g.Code(), errb.String())
	}
	if g.Check(false, "broken %d", 7) {
		t.Fatal("failing check returned true")
	}
	if g.Code() != 1 {
		t.Fatalf("failed gate code %d, want 1", g.Code())
	}
	if got := errb.String(); !strings.Contains(got, "inano-eval: broken 7") {
		t.Fatalf("stderr %q missing prefixed failure", got)
	}
}

// TestRunUsageErrors pins exit code 2 for every malformed invocation —
// distinct from 1, which means invariants failed.
func TestRunUsageErrors(t *testing.T) {
	cases := map[string][]string{
		"unknown flag":           {"-no-such-flag"},
		"unknown scale":          {"-scale", "wat"},
		"unknown scenario":       {"-scenario", "nope"},
		"unknown mutation":       {"-scenario", "churn", "-scenario-mutate", "nope"},
		"scenario at eval":       {"-scenario", "churn", "-scale", "eval"},
		"scale-build tiny1":      {"-scale-build", "-scale-ases", "1"},
		"scale-build huge":       {"-scale-build", "-scale-ases", "100", "-scale-prefixes", "-5"},
		"scale-build no clients": {"-scale-build", "-scale-clients", "0"},
		"scale-build no VPs":     {"-scale-build", "-scale-vps", "0"},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(args, &out, &errb); code != 2 {
				t.Fatalf("run(%v) = %d, want 2\nstderr: %s", args, code, errb.String())
			}
		})
	}
}

// TestRunScenarioExitContract runs one full scenario through the CLI
// layer: the known-good replay must exit 0 and the armed mutation must
// exit 1 — the contract CI's scenario job relies on.
func TestRunScenarioExitContract(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario replay")
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-scenario", "flashcrowd", "-scale", "quick", "-seed", "42"}, &out, &errb); code != 0 {
		t.Fatalf("known-good flashcrowd exited %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "=> PASS") {
		t.Fatalf("missing pass verdict:\n%s", out.String())
	}
	out.Reset()
	errb.Reset()
	code := run([]string{"-scenario", "flashcrowd", "-scale", "quick", "-seed", "42", "-scenario-mutate", "cache-off"}, &out, &errb)
	if code != 1 {
		t.Fatalf("mutated flashcrowd exited %d, want 1\nstdout: %s", code, out.String())
	}
	if !strings.Contains(errb.String(), "inano-eval:") {
		t.Fatalf("mutated run produced no stderr diagnostic")
	}
}

// TestRunScaleBuildTiny drives the out-of-core build mode end to end on
// a small world, including the RSS gate plumbing.
func TestRunScaleBuildTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("scale build")
	}
	var out, errb bytes.Buffer
	args := []string{
		"-scale-build", "-scale-ases", "400", "-scale-prefixes", "3000",
		"-scale-vps", "8", "-scale-clients", "3", "-scale-verify-pairs", "200",
		"-max-rss-mb", "4096",
	}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("scale build exited %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	for _, want := range []string{"0 load-path mismatches", "cold trees: ", "(heap in use after GC +", "peak RSS", "  dataset Prefix to AS "} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}
