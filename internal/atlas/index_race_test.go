package atlas

import (
	"sync"
	"testing"

	"inano/internal/cluster"
	"inano/internal/netsim"
)

// indexAtlas builds a small atlas with n sequential links 0->1->...->n and
// a few cross links, enough to make stale-index bugs observable.
func indexAtlas(n int) *Atlas {
	a := New()
	a.NumClusters = n + 1
	a.ClusterAS = make([]netsim.ASN, n+1)
	for i := range a.ClusterAS {
		a.ClusterAS[i] = netsim.ASN(100 + i)
	}
	for i := 0; i < n; i++ {
		a.Links = append(a.Links, Link{
			From: cluster.ClusterID(i), To: cluster.ClusterID(i + 1),
			LatencyMS: float32(i + 1), Planes: PlaneToDst,
		})
	}
	return a
}

// TestCloneIndexIsolation checks that a copy-on-write clone and its parent
// never see each other's link index: mutating the clone's link set (the
// FoldPaths pattern) must not surface in the parent's lookups, and
// vice versa.
func TestCloneIndexIsolation(t *testing.T) {
	parent := indexAtlas(8)
	// Force the parent's index to exist before cloning — the sharing bug
	// shape is a clone inheriting (or rebuilding into) the parent's map.
	if got := parent.LinkAt(0, 1); got != 0 {
		t.Fatalf("parent.LinkAt(0,1) = %d, want 0", got)
	}

	clone := parent.Clone()
	// Mutate the clone the way an in-place link edit does: append a
	// link, restore sort order, invalidate.
	clone.Links = append(clone.Links, Link{From: 7, To: 0, LatencyMS: 9, Planes: PlaneFromSrc})
	sortLinksForTest(clone)
	clone.invalidateIndex()

	if got := clone.LinkAt(7, 0); got < 0 {
		t.Fatal("clone cannot see its own appended link")
	}
	if got := parent.LinkAt(7, 0); got >= 0 {
		t.Fatalf("parent sees the clone's link at %d: index shared across clone", got)
	}
	// And the parent's own lookups still resolve to its own slice.
	for i := 0; i < 8; i++ {
		li := parent.LinkAt(cluster.ClusterID(i), cluster.ClusterID(i+1))
		if li < 0 || parent.Links[li].From != cluster.ClusterID(i) {
			t.Fatalf("parent.LinkAt(%d,%d) resolved to %d", i, i+1, li)
		}
	}

	// Mutate the parent; the clone must be unaffected.
	parent.Links = append(parent.Links, Link{From: 5, To: 0, LatencyMS: 3, Planes: PlaneToDst})
	sortLinksForTest(parent)
	parent.invalidateIndex()
	if got := clone.LinkAt(5, 0); got >= 0 {
		t.Fatalf("clone sees the parent's new link at %d", got)
	}
}

func sortLinksForTest(a *Atlas) {
	// Insertion sort by (From, To) — the Finalize invariant without
	// importing the feedback package (which would cycle).
	for i := 1; i < len(a.Links); i++ {
		for j := i; j > 0; j-- {
			x, y := a.Links[j-1], a.Links[j]
			if x.From < y.From || (x.From == y.From && x.To <= y.To) {
				break
			}
			a.Links[j-1], a.Links[j] = y, x
		}
	}
}

// TestLinkIndexCloneMutateRace interleaves parent lookups with
// clone+mutate+lookup cycles under -race: the copy-on-write contract says
// a clone's mutations never touch parent state, so this must be free of
// data races and the parent's answers must stay correct throughout.
func TestLinkIndexCloneMutateRace(t *testing.T) {
	parent := indexAtlas(16)
	stop := make(chan struct{})
	readerDone := make(chan struct{})

	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < 16; i++ {
				li := parent.LinkAt(cluster.ClusterID(i), cluster.ClusterID(i+1))
				if li < 0 {
					t.Error("parent lost a link during concurrent clone+mutate")
					return
				}
			}
		}
	}()

	var cloners sync.WaitGroup
	for g := 0; g < 4; g++ {
		cloners.Add(1)
		go func(g int) {
			defer cloners.Done()
			for iter := 0; iter < 50; iter++ {
				c := parent.Clone()
				c.Links = append(c.Links, Link{
					From: cluster.ClusterID(16), To: cluster.ClusterID(g),
					LatencyMS: 1, Planes: PlaneFromSrc,
				})
				sortLinksForTest(c)
				c.invalidateIndex()
				if c.LinkAt(16, cluster.ClusterID(g)) < 0 {
					t.Errorf("clone %d lost its own appended link", g)
					return
				}
			}
		}(g)
	}
	cloners.Wait()
	close(stop)
	<-readerDone
}

// TestInvalidateDuringBuildNotLost hammers one atlas with concurrent index
// builds (LinkAt) and invalidations, then appends a link and checks the
// final invalidation was not lost to an in-flight build — the race fixed
// by taking idxMu inside invalidateIndex. Run with -race.
func TestInvalidateDuringBuildNotLost(t *testing.T) {
	for round := 0; round < 200; round++ {
		a := indexAtlas(4)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.LinkAt(0, 1) // concurrent index build
		}()
		// Append is not concurrency-safe against LinkAt's slice read, so
		// mutate a private field only after the builder raced with the
		// invalidation below — here the mutation is the invalidation
		// ordering itself: invalidate, then append+invalidate once the
		// builder is done.
		a.invalidateIndex()
		wg.Wait()
		a.Links = append(a.Links, Link{From: 4, To: 0, LatencyMS: 1, Planes: PlaneToDst})
		sortLinksForTest(a)
		a.invalidateIndex()
		if a.LinkAt(4, 0) < 0 {
			t.Fatalf("round %d: invalidation lost to an in-flight build; LinkAt serves a stale index", round)
		}
	}
}
