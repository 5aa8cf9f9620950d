package atlas

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"inano/internal/cluster"
	"inano/internal/netsim"
)

// makeRandomAtlas builds a small arbitrary atlas straight from an RNG —
// independent of the builder pipeline, so the delta machinery is tested on
// shapes the builder would never produce.
func makeRandomAtlas(rng *rand.Rand, day int) *Atlas {
	a := New()
	a.Day = day
	n := 20 + rng.Intn(30)
	a.NumClusters = n
	for i := 0; i < n; i++ {
		a.ClusterAS = append(a.ClusterAS, netsim.ASN(1+rng.Intn(10)))
	}
	seen := map[uint64]bool{}
	for i := 0; i < 50+rng.Intn(100); i++ {
		from := cluster.ClusterID(rng.Intn(n))
		to := cluster.ClusterID(rng.Intn(n))
		if from == to || seen[LinkKey(from, to)] {
			continue
		}
		seen[LinkKey(from, to)] = true
		a.Links = append(a.Links, Link{
			From:      from,
			To:        to,
			LatencyMS: float32(rng.Intn(10000)) / 100,
			Planes:    uint8(1 + rng.Intn(3)),
		})
		if rng.Float64() < 0.2 {
			a.Loss[LinkKey(from, to)] = float32(rng.Intn(1000)) / 10000
		}
	}
	slices.SortFunc(a.Links, linkOrder)
	for i := 0; i < 100+rng.Intn(200); i++ {
		a.Tuples[PackTriple(
			netsim.ASN(1+rng.Intn(10)),
			netsim.ASN(1+rng.Intn(10)),
			netsim.ASN(1+rng.Intn(10)))] = true
	}
	for i := 0; i < 10+rng.Intn(30); i++ {
		a.PrefixCluster[netsim.Prefix(100+rng.Intn(200))] = cluster.ClusterID(rng.Intn(n))
	}
	for i := 0; i < 10+rng.Intn(30); i++ {
		a.IfaceCluster[netsim.Prefix(1000+rng.Intn(200))] = cluster.ClusterID(rng.Intn(n))
	}
	return a
}

// Diff/Apply must be exact on arbitrary atlases: applying Diff(a,b) to a
// clone of a reproduces b's daily datasets, and the delta survives its
// codec.
func TestDiffApplyPropertyRandomAtlases(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := makeRandomAtlas(rng, 0)
		b := makeRandomAtlas(rng, 1)
		if b.NumClusters < a.NumClusters {
			b.NumClusters = a.NumClusters
		}
		d := Diff(a, b)
		got := a.Clone()
		if got.Apply(d) != nil {
			return false
		}
		if got.Day != b.Day || len(got.Links) != len(b.Links) {
			return false
		}
		for i := range b.Links {
			if got.Links[i] != b.Links[i] {
				return false
			}
		}
		if len(got.Loss) != len(b.Loss) || len(got.Tuples) != len(b.Tuples) {
			return false
		}
		for k, v := range b.Loss {
			if got.Loss[k] != v {
				return false
			}
		}
		for k := range b.Tuples {
			if !got.Tuples[k] {
				return false
			}
		}
		if got.NumClusters != b.NumClusters {
			return false
		}
		if len(got.PrefixCluster) != len(b.PrefixCluster) || len(got.IfaceCluster) != len(b.IfaceCluster) {
			return false
		}
		for p, c := range b.PrefixCluster {
			if got.PrefixCluster[p] != c {
				return false
			}
		}
		for p, c := range b.IfaceCluster {
			if got.IfaceCluster[p] != c {
				return false
			}
		}
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			return false
		}
		d2, err := DecodeDelta(&buf)
		if err != nil {
			return false
		}
		return len(d2.UpLinks)+len(d2.refs.reLinks) == len(d.UpLinks) &&
			len(d2.refs.delLinks) == len(d.DelLinks) &&
			len(d2.AddTuples) == len(d.AddTuples) &&
			len(d2.refs.delTuples) == len(d.DelTuples)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// addMonthlyAndCorrections gives a random atlas the datasets makeRandomAtlas
// leaves empty and Flat.Apply reads or rewrites: the relationship and
// degree tables it carries, the late-exit table a new edge's flags come
// from, and both correction tables.
func addMonthlyAndCorrections(rng *rand.Rand, a *Atlas) {
	for x := netsim.ASN(1); x <= 10; x++ {
		if rng.Intn(4) > 0 {
			a.ASDegree[x] = int32(1 + rng.Intn(20))
		}
		for y := x + 1; y <= 10; y++ {
			switch rng.Intn(4) {
			case 0:
				a.Rels[netsim.ASPairKey(x, y)] = netsim.RelCustomer
			case 1:
				a.Rels[netsim.ASPairKey(x, y)] = netsim.RelPeer
			}
			if rng.Intn(5) == 0 {
				a.LateExit[netsim.ASPairKey(x, y)] = true
			}
		}
	}
	for i := 0; i < 20; i++ {
		p := netsim.Prefix(100 + rng.Intn(200))
		switch rng.Intn(3) {
		case 0:
			a.GlobalAdjustMS[p] = float32(rng.Intn(4000)-2000) / 100
		case 1:
			a.AdjustMS[p] = float32(rng.Intn(800)-400) / 100 // some under 2x epsilon: dropped by one roll
		default:
			a.GlobalAdjustMS[p] = float32(1 + rng.Intn(9))
			a.AdjustMS[p] = float32(rng.Intn(6400)-3200) / 100
		}
	}
}

// sameFlat compares every exported field of two Flats with
// reflect.DeepEqual (the derived search indexes are unexported and rebuilt
// from these) and names the first that differs.
func sameFlat(t testing.TB, got, want *Flat) {
	t.Helper()
	gv, wv := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < gv.NumField(); i++ {
		sf := gv.Type().Field(i)
		if !sf.IsExported() {
			continue
		}
		if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); !reflect.DeepEqual(g, w) {
			t.Fatalf("Flat.%s differs:\n flat apply: %v\n map path:   %v", sf.Name, g, w)
		}
	}
}

// mapPath is the oracle Flat.Apply is held to: back to maps, the map apply,
// a new compile.
func mapPath(f *Flat, d *Delta) (*Flat, error) {
	a := f.Inflate()
	if err := a.Apply(d); err != nil {
		return nil, err
	}
	return Compile(a), nil
}

// applied is f.Apply(d), and the map path's Flat for d, for a delta both
// must accept.
func applied(t testing.TB, f *Flat, d *Delta) (got, want *Flat, st RollStats) {
	t.Helper()
	got, st, err := f.Apply(d)
	if err != nil {
		t.Fatalf("flat apply: %v", err)
	}
	if want, err = mapPath(f, d); err != nil {
		t.Fatalf("map apply: %v", err)
	}
	return got, want, st
}

// hostile adds to d what a well-behaved build never ships but an untrusted
// peer may: cluster IDs outside the space, repeated and unsorted keys, a
// deletion and an upsert of one key.
func hostile(rng *rand.Rand, d *Delta, cur *Atlas, n int) {
	// Deletion keys are narrowed to 32 bits before they are looked up, so
	// garbage in the upper half still deletes.
	for p := range cur.PrefixCluster {
		if _, up := d.UpPrefixCluster[p]; !up && !slices.Contains(d.DelPrefixCluster, uint64(p)) {
			d.DelPrefixCluster = append(d.DelPrefixCluster, 1<<40|uint64(p))
			break
		}
	}
	for p := range cur.GlobalAdjustMS {
		if _, up := d.UpAdjust[p]; !up && !slices.Contains(d.DelAdjust, uint64(p)) {
			d.DelAdjust = append(d.DelAdjust, 1<<40|uint64(p))
			break
		}
	}
	big := cluster.ClusterID(n + 5 + rng.Intn(50))
	d.UpLinks = append(d.UpLinks,
		Link{From: big, To: 1, LatencyMS: 1, Planes: PlaneToDst},
		Link{From: 2, To: big, LatencyMS: 2, Planes: PlaneToDst},
		Link{From: -3, To: 4, LatencyMS: 3, Planes: PlaneToDst},
		Link{From: 5, To: 6, LatencyMS: 40, Planes: PlaneFromSrc},
		Link{From: 5, To: 6, LatencyMS: 41, Planes: PlaneMask}, // repeated key: the last wins
	)
	d.DelLinks = append(d.DelLinks, LinkKey(5, 6), LinkKey(big, 0), LinkKey(5, 6))
	if len(d.UpLinks) > 6 {
		l := d.UpLinks[0] // deleted and upserted in one delta: the upsert wins
		d.DelLinks = append(d.DelLinks, LinkKey(l.From, l.To))
	}
	d.UpLoss[LinkKey(big, 1)] = 0.5
	d.UpLoss[LinkKey(5, 6)] = 0.25
	d.DelLoss = append(d.DelLoss, LinkKey(5, 6), 7, 7, 3)
	d.AddTuples = append(d.AddTuples, PackTriple(3, 2, 1), PackTriple(1, 2, 3), PackTriple(3, 2, 1))
	d.DelTuples = append(d.DelTuples, PackTriple(3, 2, 1), 0)
	d.UpPrefixCluster[netsim.Prefix(150)] = big
	d.UpPrefixCluster[netsim.Prefix(151)] = -1
	d.DelPrefixCluster = append(d.DelPrefixCluster, 151, 1<<32|152, 120, 120)
	d.UpIfaceCluster[netsim.Prefix(1050)] = big
	d.DelIfaceCluster = append(d.DelIfaceCluster, 1051, 1049)
	d.UpAdjust[netsim.Prefix(160)] = 0 // a present-but-zero correction keeps its key
	d.DelAdjust = append(d.DelAdjust, 160, 161, 1<<32|162, 161)
}

// localSets returns client-local corrections as a traceroute merge would
// set them: over a prefix that already carries a local term, one that
// carries only a shipped term, a new prefix, and a set to exactly zero
// (which keeps its key, as a map entry would).
func localSets(rng *rand.Rand, cur *Atlas) map[netsim.Prefix]float32 {
	m := map[netsim.Prefix]float32{
		netsim.Prefix(700 + rng.Intn(50)): float32(rng.Intn(4000)-2000) / 100,
		netsim.Prefix(760):                0,
	}
	for p := range cur.AdjustMS {
		m[p] = float32(rng.Intn(800)-400) / 100
		break
	}
	for p := range cur.GlobalAdjustMS {
		if _, both := cur.AdjustMS[p]; !both {
			m[p] = -1.25
			break
		}
	}
	return m
}

// TestFlatApplyMatchesMapPath is the differential property behind every
// change a serving client makes to its atlas: over random worlds and
// chains of deltas, Flat.Apply yields the Flat that Inflate -> map Apply ->
// Compile yields, every exported field reflect.DeepEqual. Each chain
// crosses cluster growth with links into the new clusters, out-of-range
// IDs, local correction sets on a delta that also decays them, a loss-only
// step on untouched links, a correction-only step (FromDay == ToDay, no
// local decay), a same-day delta shaped like a traceroute merge, and
// enough day rolls to halve a local correction to under the epsilon and
// drop it.
func TestFlatApplyMatchesMapPath(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := makeRandomAtlas(rng, 0)
		addMonthlyAndCorrections(rng, a)
		f := Compile(a)
		step := func(name string, d *Delta) {
			t.Helper()
			got, want, st := applied(t, f, d)
			if err := got.Validate(); err != nil {
				t.Fatalf("seed %d %s: result fails Validate: %v", seed, name, err)
			}
			sameFlat(t, got, want)
			if st.ToDay != d.ToDay || st.ClustersAdded != int(got.NumClusters-f.NumClusters) {
				t.Fatalf("seed %d %s: stats %+v do not describe the roll", seed, name, st)
			}
			f = got
		}
		for day := 1; day <= 4; day++ {
			cur := f.Inflate()
			next := makeRandomAtlas(rng, day)
			next.NumClusters = max(next.NumClusters, cur.NumClusters) + rng.Intn(4)
			for len(next.ClusterAS) < next.NumClusters {
				next.ClusterAS = append(next.ClusterAS, netsim.ASN(1+rng.Intn(10)))
			}
			if grown := next.NumClusters - cur.NumClusters; grown > 0 {
				// A link into, out of, and an attachment to, a new cluster.
				nc := cluster.ClusterID(next.NumClusters - 1)
				next.Links = append(next.Links,
					Link{From: 0, To: nc, LatencyMS: 7, Planes: PlaneToDst},
					Link{From: nc, To: 1, LatencyMS: 8, Planes: PlaneFromSrc})
				next.Loss[LinkKey(0, nc)] = 0.125
				next.PrefixCluster[netsim.Prefix(400+day)] = nc
				slices.SortFunc(next.Links, linkOrder)
			}
			for i := 0; i < 8; i++ {
				next.GlobalAdjustMS[netsim.Prefix(100+rng.Intn(200))] = float32(rng.Intn(3000)-1500) / 100
			}
			// Some of today's entries survive into tomorrow untouched.
			for p, c := range cur.PrefixCluster {
				if p%3 == 0 {
					next.PrefixCluster[p] = c
				}
			}
			for p, v := range cur.GlobalAdjustMS {
				if p%3 == 0 {
					next.GlobalAdjustMS[p] = v
				}
			}
			d := Diff(cur, next)
			if day%2 == 0 {
				hostile(rng, d, cur, next.NumClusters)
			} else {
				d.LocalAdjust = localSets(rng, cur) // decay first, then set
			}
			step("roll", d)
		}

		// Loss only, on links the delta does not otherwise touch.
		cur := f.Inflate()
		d := &Delta{FromDay: cur.Day, ToDay: cur.Day + 1, UpLoss: map[uint64]float32{}}
		for i, l := range cur.Links {
			switch k := LinkKey(l.From, l.To); i % 3 {
			case 0:
				d.UpLoss[k] = float32(1+i%9) / 100
			case 1:
				d.DelLoss = append(d.DelLoss, k)
			}
		}
		step("loss-only", d)

		// Corrections only, inside the day: local terms must not decay.
		cur = f.Inflate()
		d = &Delta{FromDay: cur.Day, ToDay: cur.Day, UpAdjust: map[netsim.Prefix]float32{}}
		for p := range cur.GlobalAdjustMS {
			if p%2 == 0 {
				d.DelAdjust = append(d.DelAdjust, uint64(p))
			} else {
				d.UpAdjust[p] = 3.5
			}
		}
		d.UpAdjust[netsim.Prefix(999)] = -4
		locals := len(cur.AdjustMS)
		step("correction-only", d)
		if got := len(f.Inflate().AdjustMS); got != locals {
			t.Fatalf("seed %d: a correction-only delta changed %d local corrections to %d", seed, locals, got)
		}

		// What a traceroute merge emits, inside the day: a local cluster, a
		// new link into it, a re-tag of a known link, the host's attachment
		// to it, and local corrections set with nothing decayed.
		cur = f.Inflate()
		nc := cluster.ClusterID(cur.NumClusters)
		retag := cur.Links[rng.Intn(len(cur.Links))]
		retag.Planes |= PlaneFromSrc
		d = &Delta{
			FromDay:         cur.Day,
			ToDay:           cur.Day,
			AddClusterAS:    []netsim.ASN{netsim.ASN(1 + rng.Intn(10))},
			UpLinks:         []Link{{From: 3, To: nc, LatencyMS: 0.1, Planes: PlaneFromSrc}, retag},
			UpPrefixCluster: map[netsim.Prefix]cluster.ClusterID{netsim.Prefix(800): nc},
			LocalAdjust:     localSets(rng, cur),
		}
		step("traceroute-merge", d)
		for p, v := range d.LocalAdjust {
			if _, l, ok := f.Adjust(p); !ok || l != v {
				t.Fatalf("seed %d: local correction for %v reads %v (%v), set to %v", seed, p, l, ok, v)
			}
		}
	}
}

// TestFlatApplyDecaysLocalCorrections pins the halve-then-drop arithmetic
// and its RollStats on the flat path directly.
func TestFlatApplyDecaysLocalCorrections(t *testing.T) {
	a := makeRandomAtlas(rand.New(rand.NewSource(3)), 0)
	a.AdjustMS[netsim.Prefix(110)] = 8
	a.AdjustMS[netsim.Prefix(111)] = -0.9 // halves to under the epsilon
	a.GlobalAdjustMS[netsim.Prefix(111)] = 2
	a.AdjustMS[netsim.Prefix(112)] = 0.6
	f, _, st := applied(t, Compile(a), &Delta{FromDay: 0, ToDay: 1})
	if st.LocalDecayed != 1 || st.LocalDropped != 2 {
		t.Fatalf("decayed %d dropped %d, want 1 and 2", st.LocalDecayed, st.LocalDropped)
	}
	if _, l, ok := f.Adjust(110); !ok || l != 4 {
		t.Fatalf("prefix 110 local = %v (%v), want 4", l, ok)
	}
	if g, l, ok := f.Adjust(111); !ok || g != 2 || l != 0 {
		t.Fatalf("prefix 111 = (%v, %v, %v): the shipped term must outlive the dropped local one", g, l, ok)
	}
	if _, _, ok := f.Adjust(112); ok {
		t.Fatal("prefix 112 kept a key with neither term carried")
	}
}

// TestFlatApplyOwnsItsMemory writes over every slice of the input after
// the apply — as closing a mapping would take them away — and expects the
// result unchanged.
func TestFlatApplyOwnsItsMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := makeRandomAtlas(rng, 0)
	addMonthlyAndCorrections(rng, a)
	d := Diff(a, makeRandomAtlas(rng, 1))
	got, _, _ := applied(t, Compile(a), d)
	in := Compile(a)
	aliased, _, _ := in.Apply(d)
	v := reflect.ValueOf(in).Elem()
	for i := 0; i < v.NumField(); i++ {
		if fv := v.Field(i); fv.Kind() == reflect.Slice && v.Type().Field(i).IsExported() {
			for j := 0; j < fv.Len(); j++ {
				fv.Index(j).SetZero()
			}
		}
	}
	sameFlat(t, aliased, got)
}

// TestFlatApplyFromEmpty grows an atlas out of nothing but a delta: the
// zero-cluster Flat is the smallest valid input.
func TestFlatApplyFromEmpty(t *testing.T) {
	f := Compile(New())
	d := Diff(New(), makeRandomAtlas(rand.New(rand.NewSource(9)), 1))
	got, want, st := applied(t, f, d)
	sameFlat(t, got, want)
	if st.ClustersAdded != int(got.NumClusters) || st.LinksAdded != got.NumEdges() {
		t.Fatalf("stats %+v for a table of %d clusters and %d links", st, got.NumClusters, got.NumEdges())
	}
	same, want, _ := applied(t, f, &Delta{})
	sameFlat(t, same, want)
}
