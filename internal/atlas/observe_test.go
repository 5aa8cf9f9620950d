package atlas

import (
	"bytes"
	"testing"

	"inano/internal/netsim"
)

// obsTestAtlas builds a minimal valid atlas: 3 clusters in a line with
// two prefixes attached.
func obsTestAtlas() *Atlas {
	a := New()
	a.Day = 4
	a.NumClusters = 3
	a.ClusterAS = []netsim.ASN{1, 2, 3}
	a.Links = []Link{
		{From: 0, To: 1, LatencyMS: 10, Planes: PlaneToDst},
		{From: 1, To: 2, LatencyMS: 20, Planes: PlaneToDst},
	}
	a.PrefixCluster[netsim.Prefix(100)] = 0
	a.PrefixCluster[netsim.Prefix(200)] = 2
	a.PrefixAS[netsim.Prefix(100)] = 1
	a.PrefixAS[netsim.Prefix(200)] = 3
	return a
}

func TestFoldObservations(t *testing.T) {
	a := obsTestAtlas()
	folded, n := FoldObservations(a, map[netsim.Prefix]float64{
		200: 30,  // known prefix: folded at FoldGain
		999: 50,  // unknown prefix: skipped
		100: 0.1, // below the deadband after gain: not shipped
	})
	if n != 1 {
		t.Fatalf("corrections = %d, want 1", n)
	}
	if got := folded.GlobalAdjustMS[200]; got != float32(30*FoldGain) {
		t.Fatalf("correction = %v, want %v", got, 30*FoldGain)
	}
	if _, ok := folded.GlobalAdjustMS[999]; ok {
		t.Fatal("unknown prefix folded")
	}
	if _, ok := folded.GlobalAdjustMS[100]; ok {
		t.Fatal("sub-deadband correction shipped")
	}
	// The original atlas is untouched (copy-on-write contract).
	if len(a.GlobalAdjustMS) != 0 {
		t.Fatal("FoldObservations mutated its input")
	}

	// Clamping: a huge residual folds to the cap, and repeated folds
	// cannot stack past it.
	b := folded
	for i := 0; i < 10; i++ {
		b, _ = FoldObservations(b, map[netsim.Prefix]float64{200: 10 * MaxObservationFoldMS})
	}
	if got := b.GlobalAdjustMS[200]; got != MaxObservationFoldMS {
		t.Fatalf("correction = %v, want clamp %v", got, MaxObservationFoldMS)
	}

	// A negative residual walks an existing correction back down and the
	// deadband eventually clears it.
	c := folded
	for i := 0; i < 20; i++ {
		c, _ = FoldObservations(c, map[netsim.Prefix]float64{200: -float64(c.GlobalAdjustMS[200])})
	}
	if _, ok := c.GlobalAdjustMS[200]; ok {
		t.Fatalf("correction never cleared: %v", c.GlobalAdjustMS[200])
	}
}

func TestBuildDeltaWithObservationsShipsCorrections(t *testing.T) {
	prev := obsTestAtlas()
	next := obsTestAtlas()
	next.Day = 5
	d, folded, n := BuildDeltaWithObservations(prev, next, map[netsim.Prefix]float64{200: 40})
	if n != 1 || len(d.UpAdjust) != 1 {
		t.Fatalf("delta corrections: n=%d UpAdjust=%v", n, d.UpAdjust)
	}

	// Encode/decode the delta and apply it to the client's previous-day
	// atlas: the client must end up serving exactly the folded state.
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeDelta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	clientAtlas := prev.Clone()
	if err := clientAtlas.Apply(back); err != nil {
		t.Fatal(err)
	}
	if clientAtlas.Day != 5 {
		t.Fatalf("day = %d", clientAtlas.Day)
	}
	if got, want := clientAtlas.GlobalAdjustMS[200], folded.GlobalAdjustMS[200]; got != want {
		t.Fatalf("client correction %v, folded %v", got, want)
	}

	// The next day's delta can also *remove* a correction nobody
	// re-supports.
	gone := folded.Clone()
	gone.Day = 6
	delete(gone.GlobalAdjustMS, 200)
	d2 := Diff(folded, gone)
	if len(d2.DelAdjust) != 1 {
		t.Fatalf("DelAdjust = %v", d2.DelAdjust)
	}
	var buf2 bytes.Buffer
	if err := d2.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	back2, err := DecodeDelta(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	if err := clientAtlas.Apply(back2); err != nil {
		t.Fatal(err)
	}
	if _, ok := clientAtlas.GlobalAdjustMS[200]; ok {
		t.Fatal("deleted correction survived the delta")
	}
}

func TestAtlasCodecRoundTripsCorrections(t *testing.T) {
	a := obsTestAtlas()
	a.GlobalAdjustMS[100] = -12.34
	a.GlobalAdjustMS[200] = 56.78
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.GlobalAdjustMS) != 2 {
		t.Fatalf("corrections lost: %v", back.GlobalAdjustMS)
	}
	if got := back.GlobalAdjustMS[100]; got != -12.34 {
		t.Fatalf("negative correction %v, want -12.34", got)
	}
	if got := back.GlobalAdjustMS[200]; got != 56.78 {
		t.Fatalf("positive correction %v, want 56.78", got)
	}
}

func TestDecodeRejectsOutOfBoundCorrections(t *testing.T) {
	a := obsTestAtlas()
	a.GlobalAdjustMS[100] = MaxObservationFoldMS * 3 // forged: past the cap
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(&buf); err == nil {
		t.Fatal("atlas with out-of-bound correction decoded")
	}

	d := onBase(obsTestAtlas(), &Delta{FromDay: 4, ToDay: 5,
		UpLoss:   map[uint64]float32{},
		UpAdjust: map[netsim.Prefix]float32{100: -MaxObservationFoldMS * 2}})
	var dbuf bytes.Buffer
	if err := d.Encode(&dbuf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeDelta(&dbuf); err == nil {
		t.Fatal("delta with out-of-bound correction decoded")
	}
}

func TestCarryCorrections(t *testing.T) {
	prev := obsTestAtlas()
	prev.GlobalAdjustMS[100] = 8
	prev.GlobalAdjustMS[200] = 0.6

	next := obsTestAtlas()
	next.Day = 5
	// Prefix 100 is re-supported today; 200 is not and decays; a prefix
	// the new atlas cannot place is dropped outright.
	prev.GlobalAdjustMS[netsim.Prefix(999)] = 50
	n := CarryCorrections(next, prev, map[netsim.Prefix]float64{100: 1})
	if n != 2 {
		t.Fatalf("carried = %d, want 2", n)
	}
	if got := next.GlobalAdjustMS[100]; got != 8 {
		t.Fatalf("re-supported correction decayed: %v", got)
	}
	if got := next.GlobalAdjustMS[200]; got != 0.3 {
		t.Fatalf("unsupported correction = %v, want halved 0.3", got)
	}
	if _, ok := next.GlobalAdjustMS[999]; ok {
		t.Fatal("unplaceable correction carried")
	}
	// Another unsupported day drops 200 below the floor entirely.
	day3 := obsTestAtlas()
	day3.Day = 6
	CarryCorrections(day3, next, nil)
	if _, ok := day3.GlobalAdjustMS[200]; ok {
		t.Fatalf("correction never expired: %v", day3.GlobalAdjustMS[200])
	}
}

// TestAdjustDecayAcrossDayRolls is the regression for the
// stale-local-correction bug: AdjustMS survived ApplyDelta verbatim
// forever, so a correction learned against day N structure misadjusted
// day N+30. Day rolls now halve it and drop it below the epsilon.
func TestAdjustDecayAcrossDayRolls(t *testing.T) {
	a := obsTestAtlas()
	a.AdjustMS[netsim.Prefix(100)] = 8
	a.AdjustMS[netsim.Prefix(200)] = -0.9

	roll := func(from, to int) *Delta {
		return &Delta{FromDay: from, ToDay: to, UpLoss: map[uint64]float32{}}
	}

	// A same-day (re-)apply must NOT decay: nothing structural changed.
	if err := a.Apply(roll(4, 4)); err != nil {
		t.Fatal(err)
	}
	if a.AdjustMS[100] != 8 || a.AdjustMS[200] != -0.9 {
		t.Fatalf("same-day apply decayed corrections: %v", a.AdjustMS)
	}

	// Day roll 1: both halve; -0.45 falls below the 0.5 epsilon and drops.
	if err := a.Apply(roll(4, 5)); err != nil {
		t.Fatal(err)
	}
	if got := a.AdjustMS[100]; got != 4 {
		t.Fatalf("after one roll: %v, want 4", got)
	}
	if _, ok := a.AdjustMS[200]; ok {
		t.Fatal("sub-epsilon correction survived the roll")
	}

	// A multi-day sequence of rolls erases the rest: 4 -> 2 -> 1 -> 0.5
	// -> gone (0.25 < epsilon after the halving).
	for d := 5; d < 9; d++ {
		if err := a.Apply(roll(d, d+1)); err != nil {
			t.Fatal(err)
		}
	}
	if len(a.AdjustMS) != 0 {
		t.Fatalf("corrections survived a multi-day roll: %v", a.AdjustMS)
	}

	// Global corrections are not subject to the local decay — the delta
	// stream manages their lifecycle explicitly.
	b := obsTestAtlas()
	b.GlobalAdjustMS[100] = 8
	if err := b.Apply(roll(4, 5)); err != nil {
		t.Fatal(err)
	}
	if got := b.GlobalAdjustMS[100]; got != 8 {
		t.Fatalf("global correction decayed locally: %v", got)
	}
}

// TestHopLatencyMS: a hop pair's link latency is half the RTT step between
// the hops, and never below 0.1 ms, however the step comes out.
func TestHopLatencyMS(t *testing.T) {
	for _, tc := range []struct{ step, want float64 }{
		{20, 10},
		{0.5, 0.25},
		{0.2, 0.1},  // exactly the floor
		{0.1, 0.1},  // half of it is below the floor
		{0, 0.1},    // hops at the same RTT
		{-6, 0.1},   // the later hop answered first: reverse-path asymmetry
		{-1e9, 0.1}, // however far below
	} {
		if got := HopLatencyMS(tc.step); got != tc.want {
			t.Errorf("HopLatencyMS(%v) = %v, want %v", tc.step, got, tc.want)
		}
	}
}
