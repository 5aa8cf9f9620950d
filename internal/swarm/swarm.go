// Package swarm distributes the atlas and its daily deltas peer-to-peer,
// the dissemination strategy of §5: iNano's server only seeds; end hosts
// swarm chunks among themselves (the paper used CoBlitz and was moving to
// BitTorrent). This implementation is a compact BitTorrent-like protocol
// over TCP: a tracker hands out peer lists, peers exchange have-bitfields,
// and downloaders pick rarest-first verified chunks while serving what they
// already hold.
package swarm

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
)

// ChunkSize is the default chunk size; the ~7MB atlas splits into ~100
// chunks, matching swarming granularity.
const ChunkSize = 64 << 10

// Manifest describes a swarmed file: its identity is the hash of all chunk
// hashes, so peers can verify every chunk independently.
type Manifest struct {
	Name      string
	Size      int
	ChunkSize int
	Hashes    [][32]byte
}

// NumChunks returns the chunk count.
func (m *Manifest) NumChunks() int { return len(m.Hashes) }

// ID returns the swarm identity of the file.
func (m *Manifest) ID() [32]byte {
	h := sha256.New()
	h.Write([]byte(m.Name))
	for _, c := range m.Hashes {
		h.Write(c[:])
	}
	var id [32]byte
	copy(id[:], h.Sum(nil))
	return id
}

// chunkBounds returns the byte range of chunk i.
func (m *Manifest) chunkBounds(i int) (lo, hi int) {
	lo = i * m.ChunkSize
	hi = lo + m.ChunkSize
	if hi > m.Size {
		hi = m.Size
	}
	return lo, hi
}

// NewManifest builds the manifest of data.
func NewManifest(name string, data []byte, chunkSize int) Manifest {
	if chunkSize <= 0 {
		chunkSize = ChunkSize
	}
	m := Manifest{Name: name, Size: len(data), ChunkSize: chunkSize}
	for off := 0; off < len(data) || off == 0; off += chunkSize {
		end := off + chunkSize
		if end > len(data) {
			end = len(data)
		}
		m.Hashes = append(m.Hashes, sha256.Sum256(data[off:end]))
		if end == len(data) {
			break
		}
	}
	return m
}

// Verify checks data against the manifest.
func (m *Manifest) Verify(data []byte) error {
	if len(data) != m.Size {
		return fmt.Errorf("swarm: size %d, want %d", len(data), m.Size)
	}
	for i := range m.Hashes {
		lo, hi := m.chunkBounds(i)
		if sha256.Sum256(data[lo:hi]) != m.Hashes[i] {
			return fmt.Errorf("swarm: chunk %d hash mismatch", i)
		}
	}
	return nil
}

// WriteManifestFile writes the file a fetching peer starts from: a gob
// stream of the tracker's address followed by m. ReadManifestFile reads it.
func WriteManifestFile(path, trackerAddr string, m Manifest) error {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(trackerAddr); err != nil {
		return fmt.Errorf("manifest %s: %w", path, err)
	}
	if err := enc.Encode(&m); err != nil {
		return fmt.Errorf("manifest %s: %w", path, err)
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// ReadManifestFile reads a file WriteManifestFile wrote. Its errors name
// the file.
func ReadManifestFile(path string) (trackerAddr string, m Manifest, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", m, err
	}
	defer f.Close()
	dec := gob.NewDecoder(f)
	if err := dec.Decode(&trackerAddr); err != nil {
		return "", m, fmt.Errorf("manifest %s: tracker address: %w", path, err)
	}
	if err := dec.Decode(&m); err != nil {
		return "", m, fmt.Errorf("manifest %s: %w", path, err)
	}
	return trackerAddr, m, nil
}

// store holds a peer's chunks.
type store struct {
	mu     sync.RWMutex
	m      *Manifest
	chunks [][]byte // nil = missing
	nHave  int
}

func newStore(m *Manifest) *store {
	return &store{m: m, chunks: make([][]byte, m.NumChunks())}
}

func newSeedStore(m *Manifest, data []byte) *store {
	s := newStore(m)
	for i := range s.chunks {
		lo, hi := m.chunkBounds(i)
		s.chunks[i] = append([]byte(nil), data[lo:hi]...)
	}
	s.nHave = len(s.chunks)
	return s
}

func (s *store) have(i int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return i >= 0 && i < len(s.chunks) && s.chunks[i] != nil
}

func (s *store) get(i int) []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if i < 0 || i >= len(s.chunks) {
		return nil
	}
	return s.chunks[i]
}

// put verifies and stores chunk i; it reports whether the chunk was new.
func (s *store) put(i int, data []byte) (bool, error) {
	if i < 0 || i >= len(s.chunks) {
		return false, fmt.Errorf("swarm: chunk index %d out of range", i)
	}
	if sha256.Sum256(data) != s.m.Hashes[i] {
		return false, fmt.Errorf("swarm: chunk %d failed verification", i)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.chunks[i] != nil {
		return false, nil
	}
	s.chunks[i] = append([]byte(nil), data...)
	s.nHave++
	return true, nil
}

func (s *store) bitfield() []bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]bool, len(s.chunks))
	for i, c := range s.chunks {
		out[i] = c != nil
	}
	return out
}

func (s *store) complete() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nHave == len(s.chunks)
}

func (s *store) bytes() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]byte, 0, s.m.Size)
	for _, c := range s.chunks {
		out = append(out, c...)
	}
	return out
}

// pickRarest chooses the missing chunk that is rarest among the peers'
// bitfields (classic rarest-first), breaking ties randomly. It returns -1
// when nothing obtainable is missing.
func pickRarest(mine []bool, peers [][]bool, rng *rand.Rand) int {
	best, bestCount, ties := -1, int(^uint(0)>>1), 0
	for i, have := range mine {
		if have {
			continue
		}
		count := 0
		for _, pb := range peers {
			if i < len(pb) && pb[i] {
				count++
			}
		}
		if count == 0 {
			continue // nobody connected has it yet
		}
		switch {
		case count < bestCount:
			best, bestCount, ties = i, count, 1
		case count == bestCount:
			ties++
			if rng.Intn(ties) == 0 {
				best = i
			}
		}
	}
	return best
}

var errClosed = errors.New("swarm: closed")

// dialContext dials with cancellation.
func dialContext(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}
