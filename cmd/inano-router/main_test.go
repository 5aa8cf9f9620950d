package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	inano "inano"
	"inano/internal/atlas"
	"inano/internal/server"
	"inano/sim"
)

// flatFile writes a tiny world's day-0 atlas in the flat form and returns
// its path and an inanod replica over the same atlas.
func flatFile(t *testing.T) (path string, replica *httptest.Server, src, dst string) {
	t.Helper()
	w := sim.NewWorld(sim.Tiny, 42)
	vps, targets := w.VantagePoints(4), w.EdgePrefixes()
	a := w.Measure(sim.CampaignOptions{VPs: vps, Targets: targets}).BuildAtlas()
	var buf bytes.Buffer
	if err := atlas.WriteFlat(&buf, atlas.Compile(a)); err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), "atlas.flat")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	replica = httptest.NewServer(server.New(server.Config{Client: inano.FromAtlas(a), Logf: t.Logf}).Handler())
	t.Cleanup(replica.Close)
	return path, replica, vps[0].HostIP().String(), targets[0].HostIP().String()
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

// post sends body to url's /v1/query and returns the status and body.
func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(out)
}

// TestRouterServes starts the router in front of one replica, reads the
// listening line, asks it for its health and for a query with a bad src and
// a good one, cancels, and expects exit 0 after the drain.
func TestRouterServes(t *testing.T) {
	flat, replica, src, dst := flatFile(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	var stderr lockedBuffer // the health loop and the handlers log at once
	done := make(chan int, 1)
	go func() {
		code := run(ctx, []string{"-listen", "127.0.0.1:0", "-replicas", replica.URL, "-atlas-flat", flat}, pw, &stderr)
		pw.Close()
		done <- code
	}()
	sc := bufio.NewScanner(pr)
	var base string
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "inano-router: listening on "); ok {
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
	for _, body := range []string{
		fmt.Sprintf(`{"src":"+1.2.3.4","dst":%q}`, dst),
		fmt.Sprintf(`{"src":%q,"dst":%q}`, src, dst),
	} {
		wantCode, want := post(t, replica.URL, body)
		if code, got := post(t, base, body); code != wantCode || got != want {
			t.Errorf("body %q: router %d %q, replica %d %q", body, code, got, wantCode, want)
		}
	}

	cancel()
	select {
	case code := <-done:
		<-copied
		if code != 0 || !strings.Contains(rest.String(), "inano-router: shutdown complete") {
			t.Fatalf("exit %d, stdout after listening %q, stderr %q", code, rest.String(), stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("inano-router did not return after its context ended")
	}
}

func TestRouterFailures(t *testing.T) {
	dir := t.TempDir()
	junk := filepath.Join(dir, "junk.flat")
	if err := os.WriteFile(junk, []byte("not a flat atlas"), 0o644); err != nil {
		t.Fatal(err)
	}
	flat, replica, _, _ := flatFile(t)
	// An address already taken: the router cannot listen there.
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
		{"no replicas", []string{"-atlas-flat", flat}, 1, "-replicas is required"},
		{"no atlas", []string{"-replicas", replica.URL}, 1, "-atlas-flat is required"},
		{"missing atlas", []string{"-replicas", replica.URL, "-atlas-flat", filepath.Join(dir, "none.flat")}, 1, "no such file"},
		{"unreadable atlas", []string{"-replicas", replica.URL, "-atlas-flat", junk}, 1, "inano-router:"},
		{"bad listen address", []string{"-replicas", replica.URL, "-atlas-flat", flat, "-listen", "no-port"}, 1, "inano-router:"},
		{"address in use", []string{"-replicas", replica.URL, "-atlas-flat", flat, "-listen", ln.Addr().String()}, 1, "address already in use"},
	} {
		var stdout, stderr bytes.Buffer
		// Every case fails before it would serve, so an ended context
		// cannot make one pass.
		code := run(context.Background(), tc.args, &stdout, &stderr)
		if code != tc.code || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%s: exit %d, stderr %q; want exit %d and %q", tc.name, code, stderr.String(), tc.code, tc.stderr)
		}
	}
}
