package experiments

import (
	"bytes"
	"testing"

	"inano/internal/netsim"
)

func TestLabDeterminism(t *testing.T) {
	a := NewLab(QuickConfig(7))
	b := NewLab(QuickConfig(7))
	var ea, eb bytes.Buffer
	if err := a.Day(0).Atlas.Encode(&ea); err != nil {
		t.Fatal(err)
	}
	if err := b.Day(0).Atlas.Encode(&eb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea.Bytes(), eb.Bytes()) {
		t.Fatal("two labs with the same config built different day-0 atlases")
	}
	if len(a.ValSrcs) != len(b.ValSrcs) {
		t.Fatalf("validation source counts differ: %d vs %d", len(a.ValSrcs), len(b.ValSrcs))
	}
}

// TestValidationSplit checks the §6.3 methodology invariants: held-out
// pairs never reach the atlas, client traces come only from validation
// sources and are never held out, and the planes partition AllTraces.
func TestValidationSplit(t *testing.T) {
	l := testLab
	dd := l.Day(0)
	if len(dd.Validation) == 0 || len(dd.ClientTraces) == 0 || len(dd.AtlasTraces) == 0 {
		t.Fatalf("degenerate split: %d validation, %d client, %d atlas",
			len(dd.Validation), len(dd.ClientTraces), len(dd.AtlasTraces))
	}
	inAtlas := make(map[VPair]bool, len(dd.AtlasTraces))
	for _, tr := range dd.AtlasTraces {
		inAtlas[VPair{tr.Src, tr.Dst}] = true
		if l.isValSrc(tr.Src) {
			t.Fatalf("validation source %v leaked into the TO_DST plane", tr.Src)
		}
	}
	for _, vp := range dd.Validation {
		if !l.isValSrc(vp.Src) {
			t.Fatalf("held-out pair from non-validation source %v", vp.Src)
		}
		if !l.heldOut(vp.Src, vp.Dst) {
			t.Fatalf("pair %v not selected by the holdout hash", vp)
		}
		if inAtlas[vp] {
			t.Fatalf("held-out pair %v also fed the atlas", vp)
		}
	}
	for _, tr := range dd.ClientTraces {
		if !l.isValSrc(tr.Src) {
			t.Fatalf("client trace from non-validation source %v", tr.Src)
		}
		if l.heldOut(tr.Src, tr.Dst) {
			t.Fatalf("held-out trace %v->%v leaked into the FROM_SRC plane", tr.Src, tr.Dst)
		}
	}
	// The three buckets partition the campaign, modulo self-probes
	// (src == dst) among the held-out traces, which are dropped.
	selfHeld := 0
	for _, tr := range dd.AllTraces {
		if l.isValSrc(tr.Src) && l.heldOut(tr.Src, tr.Dst) && tr.Src == tr.Dst {
			selfHeld++
		}
	}
	if got := len(dd.Validation) + len(dd.ClientTraces) + len(dd.AtlasTraces) + selfHeld; got != len(dd.AllTraces) {
		t.Fatalf("split does not partition the campaign: %d+%d+%d+%d != %d",
			len(dd.Validation), len(dd.ClientTraces), len(dd.AtlasTraces), selfHeld, len(dd.AllTraces))
	}
}

func TestHeldOutFraction(t *testing.T) {
	l := testLab
	n, held := 0, 0
	for _, src := range l.ValSrcs {
		for _, dst := range l.Targets {
			n++
			if l.heldOut(src, dst) {
				held++
			}
		}
	}
	frac := float64(held) / float64(n)
	want := 1.0 / holdoutMod
	if frac < want/2 || frac > want*2 {
		t.Fatalf("holdout fraction %.3f far from 1/%d", frac, holdoutMod)
	}
}

func TestDayCaching(t *testing.T) {
	l := testLab
	if l.Day(0) != l.Day(0) {
		t.Fatal("Day(0) rebuilt instead of returning the cached day")
	}
	if l.Day(0) == l.Day(1) {
		t.Fatal("distinct days share a DayData")
	}
}

func TestTargetsIncludeVPs(t *testing.T) {
	l := testLab
	set := make(map[netsim.Prefix]bool, len(l.Targets))
	for _, p := range l.Targets {
		set[p] = true
	}
	for _, vp := range l.VPs {
		if !set[vp] {
			t.Fatalf("vantage point %v missing from the target list", vp)
		}
	}
}
