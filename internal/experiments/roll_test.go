package experiments

import (
	"sort"
	"testing"

	"inano/internal/netsim"
)

func TestSharedTargets(t *testing.T) {
	dd := testLab.Day(0)
	dsts := SharedTargets(dd)
	if len(dsts) == 0 {
		t.Fatal("no shared targets")
	}
	if !sort.SliceIsSorted(dsts, func(i, j int) bool { return dsts[i] < dsts[j] }) {
		t.Fatal("targets not sorted")
	}
	seen := make(map[netsim.Prefix]bool, len(dsts))
	want := make(map[netsim.Prefix]bool)
	for _, d := range dsts {
		if seen[d] {
			t.Fatalf("duplicate target %v", d)
		}
		seen[d] = true
	}
	for _, vp := range dd.Validation {
		want[vp.Dst] = true
		if !seen[vp.Dst] {
			t.Fatalf("validation destination %v missing from shared targets", vp.Dst)
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("%d targets but %d distinct validation destinations", len(seen), len(want))
	}
}

func TestCollectResidualsHonest(t *testing.T) {
	l := testLab
	dsts := SharedTargets(l.Day(0))
	ro := CollectResiduals(l, 0, l.ValSrcs[1:], dsts, 2, nil)
	if ro.Reporters == 0 || ro.Observations == 0 {
		t.Fatalf("no feedback collected: %+v", ro)
	}
	if len(ro.Residuals) == 0 {
		t.Fatal("no residual cleared the min-reporter bar")
	}
	for dst := range ro.Residuals {
		if len(ro.Honest[dst]) < 2 {
			t.Fatalf("folded residual for %v backed by %d < 2 reporters", dst, len(ro.Honest[dst]))
		}
	}
}

// TestCollectResidualsMutator proves the poison hook reaches the
// aggregate: shifting every residual by a constant shifts the robust
// median of every folded destination.
func TestCollectResidualsMutator(t *testing.T) {
	l := testLab
	dsts := SharedTargets(l.Day(0))
	reps := l.ValSrcs[1:]
	honest := CollectResiduals(l, 0, reps, dsts, 2, nil)
	poisoned := CollectResiduals(l, 0, reps, dsts, 2,
		func(_, _ netsim.Prefix, resid float64) float64 { return resid + 50 })
	if poisoned.Observations != honest.Observations {
		t.Fatalf("mutator changed observation count: %d vs %d", poisoned.Observations, honest.Observations)
	}
	moved := 0
	for dst, hv := range honest.Residuals {
		pv, ok := poisoned.Residuals[dst]
		if !ok {
			continue
		}
		if pv > hv+1 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("uniform poisoning left every folded residual unchanged")
	}
}

func TestScoreDeltaNilMatchesScoreAtlas(t *testing.T) {
	l := testLab
	src := l.ValSrcs[0]
	e1, a1, p1 := ScoreDelta(l, 0, 1, src, nil)
	e2, a2, p2 := scoreAtlas(l, 0, 1, src, l.Day(0).Atlas.Clone())
	if e1 != e2 || a1 != a2 || p1 != p2 {
		t.Fatalf("nil-delta score (%v,%d,%d) differs from direct atlas score (%v,%d,%d)",
			e1, a1, p1, e2, a2, p2)
	}
	if p1 == 0 {
		t.Fatal("no validation pairs for the first validation source")
	}
}
