package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"inano/internal/swarm"
)

// TestSeedServesTheFile seeds a file through its own tracker, reads the
// manifest it wrote, fetches the file back from that tracker's swarm, and
// expects exit 0 once the context ends.
func TestSeedServesTheFile(t *testing.T) {
	dir := t.TempDir()
	atlasPath, manifestPath := filepath.Join(dir, "atlas.bin"), filepath.Join(dir, "atlas.manifest")
	data := bytes.Repeat([]byte("iNano atlas bytes "), 3*swarm.ChunkSize/16) // a few chunks
	if err := os.WriteFile(atlasPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	var stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		code := run(ctx, []string{"-atlas", atlasPath, "-manifest", manifestPath, "-listen", "127.0.0.1:0"}, pw, &stderr)
		pw.Close()
		done <- code
	}()
	// The seed line comes after the manifest is written and the seed has
	// registered with the tracker.
	sc := bufio.NewScanner(pr)
	for sc.Scan() && !strings.HasPrefix(sc.Text(), "seeding ") {
	}
	go io.Copy(io.Discard, pr)

	trackerAddr, m, err := swarm.ReadManifestFile(manifestPath)
	if err != nil {
		cancel()
		t.Fatalf("%v (exit %d, stderr %q)", err, <-done, stderr.String())
	}
	fetchCtx, fetchCancel := context.WithTimeout(ctx, 30*time.Second)
	defer fetchCancel()
	got, err := swarm.Fetch(fetchCtx, trackerAddr, m)
	if err != nil {
		t.Fatalf("fetch from %s: %v", trackerAddr, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("fetched %d bytes, not the %d seeded", len(got), len(data))
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit %d after the context ended, stderr %q", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("inano-seed did not return after its context ended")
	}
}

func TestSeedFailures(t *testing.T) {
	dir := t.TempDir()
	atlasPath := filepath.Join(dir, "atlas.bin")
	if err := os.WriteFile(atlasPath, []byte("atlas"), 0o644); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "atlas.manifest")
	// A tracker address nobody listens on: the seed cannot register.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := ln.Addr().String()
	ln.Close()
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"unknown flag", []string{"-nope"}, 2, "flag provided but not defined"},
		{"missing atlas", []string{"-atlas", filepath.Join(dir, "none.bin"), "-manifest", manifest}, 1, "no such file"},
		{"bad listen address", []string{"-atlas", atlasPath, "-manifest", manifest, "-listen", "no-port"}, 1, "inano-seed:"},
		{"unreachable tracker", []string{"-atlas", atlasPath, "-manifest", manifest, "-tracker", closed}, 1, "inano-seed:"},
	} {
		var stdout, stderr bytes.Buffer
		// Every case fails before it would seed, so an ended context
		// cannot make one pass.
		code := run(context.Background(), tc.args, &stdout, &stderr)
		if code != tc.code || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%s: exit %d, stderr %q; want exit %d and %q", tc.name, code, stderr.String(), tc.code, tc.stderr)
		}
		// A failed run leaves no manifest naming a swarm nobody seeds.
		if _, err := os.Stat(manifest); !os.IsNotExist(err) {
			t.Errorf("%s: a manifest was left behind (%v)", tc.name, err)
			os.Remove(manifest)
		}
	}
}
