package atlas

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"inano/internal/cluster"
	"inano/internal/netsim"
)

// TestEytzingerCeilExhaustive pins ceil against the sorted-slice searches
// for every table size 0..64 and every probe position: below the first
// key, on each key, between each pair, and past the last.
func TestEytzingerCeilExhaustive(t *testing.T) {
	for n := 0; n <= 64; n++ {
		keys := make([]uint64, n)
		vals := make([]int32, n)
		for i := range keys {
			keys[i] = uint64(10*i + 5) // gaps so misses exist
			vals[i] = int32(i)
		}
		e := newEytIndex(keys, vals)
		for probe := uint64(0); probe <= uint64(10*n+10); probe++ {
			wantI, wantEq := slices.BinarySearch(keys, probe)
			gotK, gotV, gotOK := e.ceil(probe)
			if wantI < len(keys) {
				if !gotOK || gotK != keys[wantI] || gotV != vals[wantI] {
					t.Fatalf("n=%d ceil(%d) = (%d,%d,%v), want (%d,%d,true)",
						n, probe, gotK, gotV, gotOK, keys[wantI], vals[wantI])
				}
			} else if gotOK {
				t.Fatalf("n=%d ceil(%d) = (%d,%d,true), want none", n, probe, gotK, gotV)
			}
			v, ok := e.find(probe)
			if ok != wantEq {
				t.Fatalf("n=%d find(%d) ok=%v, want %v", n, probe, ok, wantEq)
			}
			if wantEq && v != vals[wantI] {
				t.Fatalf("n=%d find(%d) = %d, want %d", n, probe, v, vals[wantI])
			}
			if e.contains(probe) != wantEq {
				t.Fatalf("n=%d contains(%d) = %v, want %v", n, probe, !wantEq, wantEq)
			}
		}
	}
}

// TestEytzingerPrefixKeys exercises the 32-bit key instantiation with
// random netsim.Prefix tables against slices.BinarySearch.
func TestEytzingerPrefixKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		set := make(map[netsim.Prefix]bool, n)
		for len(set) < n {
			set[netsim.Prefix(rng.Uint32())] = true
		}
		keys := make([]netsim.Prefix, 0, n)
		for p := range set {
			keys = append(keys, p)
		}
		slices.Sort(keys)
		vals := make([]cluster.ClusterID, n)
		for i := range vals {
			vals[i] = cluster.ClusterID(i + 1)
		}
		e := newEytIndex(keys, vals)
		for probes := 0; probes < 300; probes++ {
			p := netsim.Prefix(rng.Uint32())
			if probes < len(keys) {
				p = keys[probes] // ensure every key is probed too
			}
			wantI, wantEq := slices.BinarySearch(keys, p)
			gotK, gotV, gotOK := e.ceil(p)
			if wantI < len(keys) {
				if !gotOK || gotK != keys[wantI] || gotV != vals[wantI] {
					t.Fatalf("ceil(%#x) = (%#x,%d,%v), want (%#x,%d,true)",
						p, gotK, gotV, gotOK, keys[wantI], vals[wantI])
				}
			} else if gotOK {
				t.Fatalf("ceil(%#x) matched past the end", p)
			}
			if v, ok := e.find(p); ok != wantEq || (ok && v != vals[wantI]) {
				t.Fatalf("find(%#x) = (%d,%v), want eq=%v", p, v, ok, wantEq)
			}
		}
	}
}

// FuzzEytzinger feeds arbitrary sorted key sets and probes through the
// Eytzinger index and pins every answer to a binary search of the sorted
// slice.
func FuzzEytzinger(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 42})
	seed := make([]byte, 8+8*5)
	binary.LittleEndian.PutUint64(seed, 17)
	for i := 0; i < 5; i++ {
		binary.LittleEndian.PutUint64(seed[8+8*i:], uint64(i*100))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		probe := binary.LittleEndian.Uint64(data[:8])
		data = data[8:]
		keys := make([]uint64, 0, len(data)/8)
		for len(data) >= 8 {
			keys = append(keys, binary.LittleEndian.Uint64(data[:8]))
			data = data[8:]
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		keys = slices.Compact(keys)
		vals := make([]int32, len(keys))
		for i := range vals {
			vals[i] = int32(i)
		}
		e := newEytIndex(keys, vals)

		check := func(p uint64) {
			wantI, wantEq := slices.BinarySearch(keys, p)
			gotK, gotV, gotOK := e.ceil(p)
			if wantI < len(keys) {
				if !gotOK || gotK != keys[wantI] || gotV != vals[wantI] {
					t.Fatalf("ceil(%d) = (%d,%d,%v), want (%d,%d,true)",
						p, gotK, gotV, gotOK, keys[wantI], vals[wantI])
				}
			} else if gotOK {
				t.Fatalf("ceil(%d) matched past the end", p)
			}
			if e.contains(p) != wantEq {
				t.Fatalf("contains(%d) = %v, want %v", p, !wantEq, wantEq)
			}
		}
		check(probe)
		for _, k := range keys {
			check(k)
		}
	})
}

// BenchmarkSearch compares the sorted-slice binary search against the
// Eytzinger descent across table sizes. The gap is negligible while the
// table fits in L1/L2 and widens as the sorted search starts missing
// cache on its first few midpoints.
func BenchmarkSearch(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 16, 1 << 20} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(i)*7 + 3
		}
		vals := make([]int32, n)
		for i := range vals {
			vals[i] = int32(i)
		}
		e := newEytIndex(keys, vals)
		probes := make([]uint64, 1024)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := range probes {
			probes[i] = uint64(rng.Intn(n*7 + 10))
		}
		b.Run(benchName("sorted", n), func(b *testing.B) {
			var sink int
			for i := 0; i < b.N; i++ {
				lo, _ := slices.BinarySearch(keys, probes[i&1023])
				sink += lo
			}
			_ = sink
		})
		b.Run(benchName("eytzinger", n), func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				k, _, _ := e.ceil(probes[i&1023])
				sink += k
			}
			_ = sink
		})
	}
}

func benchName(kind string, n int) string {
	switch {
	case n >= 1<<20:
		return kind + "/1M"
	case n >= 1<<16:
		return kind + "/64k"
	default:
		return kind + "/1k"
	}
}
