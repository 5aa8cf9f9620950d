package swarm

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func testData(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, n)
	rng.Read(data)
	return data
}

func TestManifestVerify(t *testing.T) {
	data := testData(200_000, 1)
	m := NewManifest("atlas", data, 64<<10)
	if m.NumChunks() != 4 {
		t.Fatalf("chunks = %d, want 4", m.NumChunks())
	}
	if err := m.Verify(data); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[100_000] ^= 0xff
	if err := m.Verify(bad); err == nil {
		t.Fatal("corrupted data verified")
	}
	if err := m.Verify(data[:100]); err == nil {
		t.Fatal("truncated data verified")
	}
}

func TestManifestEmptyAndSmall(t *testing.T) {
	m := NewManifest("empty", nil, 0)
	if m.NumChunks() != 1 || m.Size != 0 {
		t.Fatalf("empty manifest: %d chunks size %d", m.NumChunks(), m.Size)
	}
	if err := m.Verify(nil); err != nil {
		t.Fatal(err)
	}
	small := testData(10, 2)
	ms := NewManifest("small", small, 1<<20)
	if ms.NumChunks() != 1 {
		t.Fatalf("small file chunks = %d", ms.NumChunks())
	}
}

func TestPickRarest(t *testing.T) {
	mine := []bool{true, false, false, false}
	peers := [][]bool{
		{true, true, true, false},
		{true, false, true, false},
	}
	rng := rand.New(rand.NewSource(1))
	// Chunk 1 held by one peer, chunk 2 by two, chunk 3 by none.
	if got := pickRarest(mine, peers, rng); got != 1 {
		t.Fatalf("pickRarest = %d, want 1", got)
	}
	// Nothing missing and obtainable.
	if got := pickRarest([]bool{true, true}, peers, rng); got != -1 {
		t.Fatalf("pickRarest on complete = %d", got)
	}
}

func TestSingleFetch(t *testing.T) {
	data := testData(300_000, 3)
	m := NewManifest("atlas-day0", data, 32<<10)
	tr, err := StartTracker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	seed, err := StartSeed(tr.Addr(), m, data)
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	got, err := Fetch(ctx, tr.Addr(), m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fetched data differs")
	}
}

func TestSwarmManyPeers(t *testing.T) {
	data := testData(500_000, 4)
	m := NewManifest("atlas-day1", data, 32<<10)
	tr, err := StartTracker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	seed, err := StartSeed(tr.Addr(), m, data)
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Second)
	defer cancel()
	const n = 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := Fetch(ctx, tr.Addr(), m)
			if err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(got, data) {
				errs[i] = context.DeadlineExceeded
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
	}
}

func TestFetchCancel(t *testing.T) {
	data := testData(100_000, 6)
	m := NewManifest("atlas-day3", data, 32<<10)
	tr, err := StartTracker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// No seed: the fetch can never complete and must honor cancellation.
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := Fetch(ctx, tr.Addr(), m); err == nil {
		t.Fatal("fetch succeeded with no seed")
	}
}

func TestSeedRejectsWrongData(t *testing.T) {
	data := testData(50_000, 7)
	m := NewManifest("atlas-day4", data, 16<<10)
	tr, err := StartTracker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := StartSeed(tr.Addr(), m, testData(50_000, 8)); err == nil {
		t.Fatal("seed accepted mismatched data")
	}
}

// TestManifestFileRoundTrip: the manifest file inano-seed writes reads
// back as the tracker address and the manifest it was written from, and a
// truncated one is refused with an error that names the file.
func TestManifestFileRoundTrip(t *testing.T) {
	m := NewManifest("delta-7.bin", testData(150_000, 3), ChunkSize)
	path := filepath.Join(t.TempDir(), "delta.manifest")
	if err := WriteManifestFile(path, "127.0.0.1:7001", m); err != nil {
		t.Fatal(err)
	}
	addr, got, err := ReadManifestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if addr != "127.0.0.1:7001" || !reflect.DeepEqual(got, m) {
		t.Fatalf("read back %q %+v, want %q %+v", addr, got, "127.0.0.1:7001", m)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 5, len(raw) / 2, len(raw) - 1} {
		if err := os.WriteFile(path, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadManifestFile(path); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("manifest cut to %d of %d bytes: err = %v, want one naming %s", n, len(raw), err, path)
		}
	}
}
