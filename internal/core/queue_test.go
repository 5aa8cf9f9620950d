package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestCostQueueMatchesSortedOrder is the queue's contract as a property:
// under any monotone interleaving of pushes and pops — most pushes landing
// exactly on the cost being popped, as they do in a build; nodes re-queued
// at lower costs while their stale entries are still inside; a reset
// between phases, once with entries still queued — every pop returns the
// least (cost, node) pair of a plainly sorted reference.
func TestCostQueueMatchesSortedOrder(t *testing.T) {
	sizes := []int{1, 2, 63, 64, 65, 700, 4096, 4097, 270000} // one to three bitmap levels
	pushes, ties := 0, 0
	for seed := int64(0); seed < 1000; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := sizes[seed%int64(len(sizes))]
		q := costQueue{ties: newNodeSet(n)}
		type pair struct {
			cost uint64
			node int32
		}
		var ref []pair
		last := uint64(0)

		push := func() {
			var cost uint64
			switch k := r.Intn(100); {
			case k < 70:
				cost = last // the tie: the common case, not the corner
			case k < 80 && len(ref) > 0:
				cost = max(last, ref[r.Intn(len(ref))].cost) // ties with a waiting entry
			case k < 90:
				cost = last + uint64(r.Intn(5000)) // same hop count, longer exit
			case k < 97:
				cost = packCost(costHops(last)+1+uint32(r.Intn(3)), 0) // an AS crossing
			default:
				cost = last + r.Uint64()%(math.MaxUint64-last) // anywhere above
			}
			it := pair{cost, int32(r.Intn(n))}
			if slices.Contains(ref, it) {
				return // a pair is queued once; the same node at another cost is fine
			}
			pushes++
			if cost == last {
				ties++
			}
			q.push(it.cost, it.node)
			ref = append(ref, it)
		}
		pop := func() {
			cost, node, ok := q.pop()
			if len(ref) == 0 {
				if ok {
					t.Fatalf("seed %d: pop from an empty queue returned (%d,%d)", seed, cost, node)
				}
				return
			}
			i := 0
			for j, it := range ref {
				if it.cost < ref[i].cost || it.cost == ref[i].cost && it.node < ref[i].node {
					i = j
				}
			}
			if want := ref[i]; !ok || cost != want.cost || node != want.node {
				t.Fatalf("seed %d (n=%d): pop = (%#x,%d,%v), want (%#x,%d)", seed, n, cost, node, ok, want.cost, want.node)
			}
			if cost < last {
				t.Fatalf("seed %d: popped %#x after %#x", seed, cost, last)
			}
			last = cost
			ref = slices.Delete(ref, i, i+1)
		}

		for phase := 0; phase < 3; phase++ {
			for op := 0; op < 150; op++ {
				if r.Intn(5) < 3 {
					push()
				} else {
					pop()
				}
			}
			if phase == 1 {
				ref = ref[:0] // a reset discards what is queued
			}
			for len(ref) > 0 {
				pop()
			}
			q.reset()
			last = 0
			if _, _, ok := q.pop(); ok {
				t.Fatalf("seed %d: queue not empty after reset", seed)
			}
		}
	}
	if ties*10 < pushes*6 {
		t.Fatalf("only %d of %d pushes were exact ties; the property is about ties", ties, pushes)
	}
}
