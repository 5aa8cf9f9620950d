package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	inano "inano"
	"inano/internal/atlas"
	"inano/internal/core"
	"inano/internal/metrics"
	"inano/sim"
)

func build(t *testing.T, args ...string) (stdout string) {
	t.Helper()
	var out, stderr bytes.Buffer
	if code := run(args, &out, &stderr); code != 0 {
		t.Fatalf("inano-build %v: exit %d: %s", args, code, stderr.String())
	}
	return out.String()
}

func load(t *testing.T, path string) *inano.Client {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, err := inano.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWrittenDeltaIsFollowable drives the command as an operator would for
// two days and holds the written delta to what a daily delta is for: a
// client that loaded day 0 and applies it serves day 1. With independently
// clustered days (the command before cluster IDs were chained) the
// follower answered a quarter of what a day-1 loader does.
func TestWrittenDeltaIsFollowable(t *testing.T) {
	dir := t.TempDir()
	a0, a1, d1 := filepath.Join(dir, "a0.bin"), filepath.Join(dir, "a1.bin"), filepath.Join(dir, "d1.bin")
	common := []string{"-scale", "tiny", "-seed", "42", "-vps", "12"}
	build(t, append(common, "-day", "0", "-o", a0)...)
	out := build(t, append(common, "-day", "1", "-o", a1, "-delta", d1, "-flat", filepath.Join(dir, "a1.flat"))...)

	// A successful build says where its time went: one line per stage, each
	// a wall time in seconds, and the peak RSS where the platform tells.
	for _, name := range []string{"world", "campaign", "cluster", "build", "encode", "flat", "delta"} {
		if !regexp.MustCompile(`(?m)^stage ` + name + ` +\d+\.\d{3} s$`).MatchString(out) {
			t.Errorf("no %q stage line on stdout:\n%s", name, out)
		}
	}
	if _, ok := metrics.PeakRSSMB(); ok && !regexp.MustCompile(`(?m)^peak RSS: \d+ MB$`).MatchString(out) {
		t.Errorf("no peak RSS line on stdout:\n%s", out)
	}

	follower, direct := load(t, a0), load(t, a1)
	delta, err := os.ReadFile(d1)
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplyDelta(bytes.NewReader(delta)); err != nil {
		t.Fatal(err)
	}
	if day := follower.Snapshot().Day(); day != 1 {
		t.Fatalf("follower serves day %d after the delta", day)
	}

	// The reference for "identical": the map-form apply under a plain
	// engine, which is what the delta means.
	f0, err := os.Open(a0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := atlas.Decode(f0)
	f0.Close()
	if err != nil {
		t.Fatal(err)
	}
	dd, err := atlas.DecodeDelta(bytes.NewReader(delta))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Apply(dd); err != nil {
		t.Fatal(err)
	}
	refEngine := core.New(ref, core.INanoOptions())

	w := sim.NewWorld(sim.Tiny, 42)
	var followed, loaded, both, agree int
	followerSnap, directSnap := follower.Snapshot(), direct.Snapshot()
	for _, src := range w.VantagePoints(12) {
		for _, dst := range w.EdgePrefixes() {
			got, _ := followerSnap.Query(context.Background(), src, dst)
			want := refEngine.Query(src, dst)
			if got.Found != want.Found || got.RTTMS != want.RTTMS || got.LossRate != want.LossRate {
				t.Fatalf("%v -> %v: follower answers %+v, the delta's reference %+v", src, dst, got, want)
			}
			day1, _ := directSnap.Query(context.Background(), src, dst)
			if got.Found {
				followed++
			}
			if day1.Found {
				loaded++
			}
			if got.Found && day1.Found {
				both++
				if got.RTTMS == day1.RTTMS {
					agree++
				}
			}
		}
	}
	t.Logf("follower answers %d pairs, day-1 loader %d; %d of the %d both answer agree to the bit", followed, loaded, agree, both)
	if loaded == 0 || followed < loaded {
		t.Fatalf("follower answers %d pairs, a client that loads day 1 answers %d", followed, loaded)
	}
	// The monthly datasets (origins, degrees, preferences, providers,
	// relationships) do not travel in a daily delta, so the two need not
	// agree everywhere; renumbered clusters left them agreeing on a third.
	if agree*4 < both*3 {
		t.Fatalf("follower and day-1 loader agree on %d of %d pairs", agree, both)
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{{"-scale", "huge"}, {"-day", "-1"}, {"-no-such-flag"}} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("inano-build %v: exit %d, want 2", args, code)
		}
	}
}
