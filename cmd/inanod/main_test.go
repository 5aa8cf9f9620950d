package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"inano/sim"
)

// atlasFile writes a tiny world's day-0 atlas, as inano-build writes it,
// and returns its path.
func atlasFile(t *testing.T) string {
	t.Helper()
	w := sim.NewWorld(sim.Tiny, 42)
	a := w.Measure(sim.CampaignOptions{VPs: w.VantagePoints(4), Targets: w.EdgePrefixes()}).BuildAtlas()
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "atlas.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// lockedBuffer is a bytes.Buffer that goroutines may write at once.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDaemonServes starts the daemon over a tiny atlas, reads the listening
// line, asks it for its health, cancels, and expects exit 0 after the
// shutdown.
func TestDaemonServes(t *testing.T) {
	path := atlasFile(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	var stderr lockedBuffer // the handlers log while the test reads
	done := make(chan int, 1)
	go func() {
		code := run(ctx, []string{"-atlas", path, "-listen", "127.0.0.1:0"}, pw, &stderr)
		pw.Close()
		done <- code
	}()
	sc := bufio.NewScanner(pr)
	var base string
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "inanod: listening on "); ok {
			base = rest
			break
		}
	}
	if base == "" {
		cancel()
		t.Fatalf("no listening line (exit %d, stderr %q)", <-done, stderr.String())
	}
	var rest bytes.Buffer
	copied := make(chan struct{})
	go func() { io.Copy(&rest, pr); close(copied) }()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: status %d", resp.StatusCode)
	}

	cancel()
	select {
	case code := <-done:
		<-copied
		if code != 0 || !strings.Contains(rest.String(), "inanod: shutdown complete") {
			t.Fatalf("exit %d, stdout after listening %q, stderr %q", code, rest.String(), stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("inanod did not return after its context ended")
	}
}

func TestDaemonFailures(t *testing.T) {
	dir := t.TempDir()
	junk := filepath.Join(dir, "junk.bin")
	if err := os.WriteFile(junk, []byte("not an atlas"), 0o644); err != nil {
		t.Fatal(err)
	}
	path := atlasFile(t)
	// An address already taken: the daemon cannot listen there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"unknown flag", []string{"-nope"}, 2, "flag provided but not defined"},
		{"bad flag value", []string{"-window", "many"}, 2, "invalid value"},
		{"no atlas", nil, 1, "one of -atlas or -fetch-manifest is required"},
		{"flat and file", []string{"-atlas-flat", junk, "-atlas", path}, 1, "-atlas-flat cannot be combined"},
		{"flat and manifest", []string{"-atlas-flat", junk, "-fetch-manifest", junk}, 1, "-atlas-flat cannot be combined"},
		{"file and manifest", []string{"-atlas", path, "-fetch-manifest", junk}, 1, "not both"},
		{"missing atlas", []string{"-atlas", filepath.Join(dir, "none.bin")}, 1, "no such file"},
		{"unreadable atlas", []string{"-atlas", junk}, 1, "inanod:"},
		{"unreadable flat atlas", []string{"-atlas-flat", junk}, 1, "inanod:"},
		{"snapshot without aggregate", []string{"-atlas", path, "-obs-snapshot", filepath.Join(dir, "obs.json")}, 1, "-obs-snapshot requires -aggregate"},
		{"probe-sim without seed", []string{"-atlas", path, "-probe-sim", "tiny"}, 1, "want scale:seed"},
		{"probe-sim scale", []string{"-atlas", path, "-probe-sim", "huge:1"}, 1, `bad -probe-sim scale "huge"`},
		{"probe-sim seed", []string{"-atlas", path, "-probe-sim", "tiny:x"}, 1, `bad -probe-sim seed "x"`},
		{"bad listen address", []string{"-atlas", path, "-listen", "no-port"}, 1, "inanod:"},
		{"address in use", []string{"-atlas", path, "-listen", ln.Addr().String()}, 1, "address already in use"},
	} {
		var stdout, stderr bytes.Buffer
		// Every case fails before it would serve, so an ended context
		// cannot make one pass.
		code := run(context.Background(), tc.args, &stdout, &stderr)
		if code != tc.code || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%s: exit %d, stderr %q; want exit %d and %q", tc.name, code, stderr.String(), tc.code, tc.stderr)
		}
		if strings.Contains(stdout.String(), "listening on") {
			t.Errorf("%s: listened: %q", tc.name, stdout.String())
		}
	}
}
