package atlas

import (
	"bytes"
	"compress/gzip"
	"runtime"
	"slices"
	"strings"
	"testing"

	"inano/internal/cluster"
	"inano/internal/netsim"
)

// wireFixture is a small atlas with an entry or two in every section.
func wireFixture() *Atlas {
	a := New()
	a.Day, a.NumClusters = 3, 4
	a.ClusterAS = []netsim.ASN{7, 7, 8, 9}
	a.Links = []Link{ // one-way both ways round, a self link, and a pair
		{From: 0, To: 1, LatencyMS: 1, Planes: PlaneToDst},
		{From: 0, To: 2, LatencyMS: 2, Planes: PlaneMask},
		{From: 1, To: 1, LatencyMS: 0.5, Planes: PlaneToDst},
		{From: 2, To: 0, LatencyMS: 1.5, Planes: PlaneFromSrc},
		{From: 3, To: 2, LatencyMS: 4, Planes: PlaneToDst},
	}
	a.Loss[LinkKey(0, 2)] = 0.25
	a.Loss[LinkKey(3, 2)] = 0.5
	a.PrefixCluster[100], a.PrefixCluster[101] = 1, 3
	a.IfaceCluster[200], a.IfaceCluster[201] = 0, 2
	a.PrefixAS[100], a.PrefixAS[101] = 7, 9
	a.ASDegree[7], a.ASDegree[8], a.ASDegree[9] = 2, 2, 1
	a.Tuples[PackTriple(7, 8, 9)], a.Tuples[PackTriple(9, 8, 7)] = true, true
	a.Prefs[PackTriple(8, 7, 9)] = true
	a.Providers[9], a.Providers[7] = []netsim.ASN{7, 8}, []netsim.ASN{8}
	a.Rels[netsim.ASPairKey(7, 8)], a.Rels[netsim.ASPairKey(8, 9)] = netsim.RelPeer, netsim.RelCustomer
	a.LateExit[netsim.ASPairKey(7, 8)] = true
	a.GlobalAdjustMS[100], a.GlobalAdjustMS[101] = 4.5, -2
	a.ObservedLinks[LinkKey(3, 2)] = ObservedTTLDays
	a.ObservedAttach[101] = 1
	return a
}

// offGraphFixture is wireFixture with 3-tuples, preferences and providers
// off the relationship graph — a head, a first hop and a second hop no
// relationship names, and a head at MaxASN, the widest a 3-tuple packs —
// and a relationship key written high end first, whose row comes out of
// order: every escape of the v5 coding. To it come the exceptions of v6:
// far ends off their near end's candidates, among them every link of a
// cluster whose AS has no row; an origin other than its cluster's AS, an
// origin of 0, a cluster with no origin and an origin with no cluster; and
// a degree other than its row's length, an AS with a row and no degree,
// and degrees, 0 among them, for ASes with no row.
func offGraphFixture() *Atlas {
	a := wireFixture()
	a.Rels[netsim.DirASPairKey(9, 3)] = netsim.RelPeer // 9's row is [8 3]
	for _, k := range [][3]netsim.ASN{{7, 9, 8}, {5, 7, 8}, {8, 9, 100}, {8, 9, 3}, {9, 3, 9}, {9, 8, 9}, {MaxASN, 8, 7}} {
		a.Tuples[PackTriple(k[0], k[1], k[2])] = true
	}
	a.Prefs[PackTriple(9, 7, 8)], a.Prefs[PackTriple(9, 8, 3)], a.Prefs[PackTriple(4, 1, 2)] = true, true, true
	a.Providers[100], a.Providers[9] = []netsim.ASN{8, 9}, []netsim.ASN{3, 7, 8}
	a.NumClusters, a.ClusterAS = 5, append(a.ClusterAS, 100) // cluster 4's AS has no row
	a.Links = append(a.Links,
		Link{From: 0, To: 3, LatencyMS: 3, Planes: PlaneToDst}, // AS 9 is no neighbour of AS 7
		Link{From: 3, To: 0, LatencyMS: 3.5, Planes: PlaneToDst},
		Link{From: 4, To: 1, LatencyMS: 6, Planes: PlaneMask},
		Link{From: 4, To: 4, LatencyMS: 0.25, Planes: PlaneToDst})
	slices.SortFunc(a.Links, linkOrder)
	a.PrefixCluster[102], a.PrefixAS[102] = 0, 5 // AS 5, not cluster 0's 7
	a.PrefixCluster[103] = 2                     // no origin
	a.PrefixAS[104] = 8                          // no cluster
	a.PrefixCluster[105], a.PrefixAS[105] = 2, 0 // an origin of 0
	a.ASDegree[9] = 3                            // its row has two
	a.ASDegree[5], a.ASDegree[100] = 3, 0        // no row; AS 3 has a row and no degree
	return a
}

// rawAtlas hand-assembles an encoded atlas: a's own header and sections,
// but for the sections in with, whose records (after the section id) the
// given function writes — Encode sorts and bounds what it writes, so this
// is the only way to bytes it cannot produce. order lists the section ids
// to write; nil is Encode's own order.
func rawAtlas(tb testing.TB, a *Atlas, order []int, with map[int]func(*sectionWriter)) []byte {
	tb.Helper()
	var sw sectionWriter
	sw.uvarint(atlasVersion)
	sw.uvarint(uint64(a.Day))
	sw.uvarint(uint64(a.NumClusters))
	if order == nil {
		for sec := 0; sec < numSections; sec++ {
			order = append(order, sec)
		}
	}
	for _, sec := range order {
		sw.uvarint(uint64(sec))
		if write := with[sec]; write != nil {
			write(&sw)
		} else {
			a.encodeSection(sec, newASGraph(sortedKeys(a.Rels)), &sw)
		}
	}
	return gzipped(tb, atlasMagic, sw.buf.Bytes())
}

// records returns a section body: a count, then the varints as given.
func records(count uint64, varints ...uint64) func(*sectionWriter) {
	return func(sw *sectionWriter) {
		sw.uvarint(count)
		for _, v := range varints {
			sw.uvarint(v)
		}
	}
}

// table returns the body writeTable makes of keys and one value a key, or
// of keys alone for nil vals, taken as given: unsorted, repeated or out of
// range, as Encode never writes them.
func table(split uint, keys []uint64, vals []uint64) func(*sectionWriter) {
	return func(sw *sectionWriter) {
		if vals == nil {
			writeTable(sw, keys, split)
			return
		}
		writeTable(sw, keys, split, func(i int) uint64 { return vals[i] })
	}
}

// linkRecords returns a delta's links section body: links written as
// records in the order given, the i-th with "reverse present" flag flags[i]
// (0 past the end of flags), then the varints of tail — the columns of the
// paired reverses, which writeLinks would derive.
func linkRecords(links []Link, flags []uint64, tail ...uint64) func(*sectionWriter) {
	return func(sw *sectionWriter) {
		keys := make([]uint64, len(links))
		for i, l := range links {
			keys[i] = LinkKey(l.From, l.To)
		}
		writeTable(sw, keys, splitPair)
		linkCols(sw, links, flags, tail)
	}
}

// linkCols writes the columns that follow a links section's keys: flags,
// latencies and planes of links as given, then the varints of tail.
func linkCols(sw *sectionWriter, links []Link, flags []uint64, tail []uint64) {
	sw.column(len(links), func(i int) uint64 {
		if i < len(flags) {
			return flags[i]
		}
		return 0
	})
	sw.column(len(links), func(i int) uint64 { return quantLat(links[i].LatencyMS) })
	sw.column(len(links), func(i int) uint64 { return uint64(links[i].Planes) })
	for _, v := range tail {
		sw.uvarint(v)
	}
}

// atlasLinkRecords is linkRecords for an atlas's links section, whose ends
// are coded against a's clusters and relationships (writeEnds), in the
// order given — Encode writes them in (From, To) order only.
func atlasLinkRecords(a *Atlas, links []Link, flags []uint64, tail ...uint64) func(*sectionWriter) {
	return func(sw *sectionWriter) {
		keys := make([]uint64, len(links))
		for i, l := range links {
			keys[i] = LinkKey(l.From, l.To)
		}
		writeEnds(sw, keys, a.ClusterAS, newASGraph(sortedKeys(a.Rels)))
		linkCols(sw, links, flags, tail)
	}
}

// isCandidate reports whether cluster to is among the candidates of near
// end from.
func isCandidate(cg *clusterGroups, from, to cluster.ClusterID) bool {
	cg.at(int32(from))
	return cg.slotOf(cg.group[to]) >= 0
}

type hostileAtlas struct {
	name, section, complaint string
	raw                      []byte
}

// hostileAtlases is the streams no Encode writes and the map door used to
// swallow — a repeated key merged, a descending one re-sorted, an
// out-of-range one caught late and unnamed, a link pair written twice —
// each with the section name and the complaint its rejection must carry.
func hostileAtlases(tb testing.TB) []hostileAtlas {
	a := wireFixture()
	one := func(sec int, body func(*sectionWriter)) []byte {
		return rawAtlas(tb, a, nil, map[int]func(*sectionWriter){sec: body})
	}
	// relSet writes keys as given against the fixture's relationships.
	relSet := func(keys []uint64, s relShape) func(*sectionWriter) {
		return func(sw *sectionWriter) { writeRelSet(sw, newASGraph(sortedKeys(a.Rels)), keys, s) }
	}
	tuplesFirst := []int{secClusterAS, secLoss, secPrefixCluster, secPrefixAS, secTuples, secRels}
	linksFirst := []int{secClusterAS, secLinks, secRels}
	originsFirst := []int{secClusterAS, secRels, secLinks, secLoss, secPrefixAS, secPrefixCluster}
	twice := []int{secClusterAS, secRels, secLinks, secLoss, secLoss}
	for sec := secPrefixCluster; sec < numSections-1; sec++ {
		twice = append(twice, sec)
	}
	links := func(links []Link, flags []uint64, tail ...uint64) func(*sectionWriter) {
		return atlasLinkRecords(a, links, flags, tail...)
	}
	link := func(from, to cluster.ClusterID, planes uint8) Link {
		return Link{From: from, To: to, LatencyMS: 1, Planes: planes}
	}
	provider := func(origin, up uint64) uint64 { return origin<<32 | up }
	off := offGraphFixture() // cluster 3's slots: its own AS 9, AS 8, AS 3 with no cluster
	selfRel := wireFixture() // cluster 0's slots: its own AS 7, AS 7 again, AS 8
	selfRel.Rels[netsim.ASPairKey(7, 7)] = netsim.RelSibling
	return []hostileAtlas{
		{"zero key delta", "Link loss rates", "ascend strictly", one(secLoss, table(splitPair, []uint64{5, 5}, []uint64{100, 200}))},
		{"delta that wraps uint64", "AS three-tuples", "ascend strictly", one(secTuples, relSet([]uint64{PackTriple(9, 8, 7), PackTriple(7, 8, 9)}, tupleShape))},
		{"3-tuples out of order", "AS three-tuples", "ascend strictly", one(secTuples, relSet([]uint64{10, 7}, tupleShape))},
		{"index past the degree", "AS three-tuples", "index 5 past the degree 1 of AS 7", one(secTuples, records(1, 7, 0, 5))},
		{"index past the degree of a second hop", "AS preferences", "index 3 past the degree 2 of AS 8", one(secPrefs, records(1, 8, 0, 0, 0, 3))},
		{"3-tuples before the relationships", "AS three-tuples", "written before section AS relationships", rawAtlas(tb, a, tuplesFirst, nil)},
		{"a second hop too wide", "AS three-tuples", "wider than 21 bits", one(secTuples, records(1, 5, 0, 0, 5, 0, 0, 1<<21))},
		{"keys that collide as prefixes", "Prefix to AS", "ascend strictly", one(secPrefixAS, table(unsplit, []uint64{100, 1<<32 + 100}, []uint64{7, 9}))},
		{"origin exceptions out of order", "Prefix to AS", "ascend strictly", one(secPrefixAS, table(unsplit, []uint64{102, 100}, []uint64{5, 0}))},
		{"an origin its cluster implies", "Prefix to AS", "prefix 100 origin 7 is the one its cluster implies", one(secPrefixAS, table(unsplit, []uint64{100}, []uint64{1}))},
		{"no cluster and no origin", "Prefix to AS", "prefix 102 has no cluster and no origin", one(secPrefixAS, table(unsplit, []uint64{102}, []uint64{0}))},
		{"an origin past 32 bits", "Prefix to AS", "out of range", one(secPrefixAS, table(unsplit, []uint64{102}, []uint64{zigzag(1<<32) + 1}))},
		{"origins before the attachments", "Prefix to AS", "written before section Prefix to cluster", rawAtlas(tb, a, originsFirst, nil)},
		{"keys that collide as ASNs", "AS degrees", "ascend strictly", one(secASDegree, table(unsplit, []uint64{7, 1<<32 + 7}, []uint64{2, 2}))},
		{"a degree exception for an AS with no row", "AS degrees", "AS 5 has no row and no degree", one(secASDegree, table(unsplit, []uint64{5}, []uint64{0}))},
		{"a degree its row implies", "AS degrees", "AS 8 degree 2 is the one its row implies", one(secASDegree, table(unsplit, []uint64{8}, []uint64{1}))},
		{"repeated provider", "Provider mappings", "ascend strictly", one(secProviders, relSet([]uint64{provider(9, 7), provider(9, 7)}, providerShape))},
		{"repeated origin", "Provider mappings", "ascend strictly", one(secProviders, relSet([]uint64{provider(9, 7), provider(7, 8), provider(9, 8)}, providerShape))},
		{"records past the count", "Provider mappings", "count says 1", one(secProviders, records(1, 9, 1, 0, 1, 100))},
		{"repeated link", "Inter-cluster links", "link (0,3) after (0,3): links must ascend strictly", one(secLinks, links([]Link{link(0, 3, 1), link(0, 3, 1)}, nil))},
		{"links out of order", "Inter-cluster links", "link (0,1) after (0,2): links must ascend strictly", one(secLinks, links([]Link{link(0, 2, 1), link(0, 1, 1)}, nil))},
		{"far-end slot past the escape", "Inter-cluster links", "far-end slot 0+3 of cluster 0 past its 2 slots", one(secLinks, records(1, 0, 0, zigzag(3)))},
		{"far-end rank past its AS's clusters", "Inter-cluster links", "far-end rank past the 2 clusters in slot 0 of cluster 0", one(secLinks, records(1, 0, 0, 0, 2))},
		{"far-end rank past the last in its slot", "Inter-cluster links", "far-end rank past the 2 clusters in slot 0 of cluster 0", one(secLinks, records(2, 0, 1, 0, 1, 0))},
		{"far-end slot of an AS with no cluster", "Inter-cluster links", "far-end slot 2 of cluster 3 names an AS with no cluster", rawAtlas(tb, off, nil, map[int]func(*sectionWriter){secLinks: records(1, 3, 0, zigzag(2))})},
		{"far-end slot that repeats another", "Inter-cluster links", "far-end slot 1 of cluster 0 names the AS of an earlier slot", rawAtlas(tb, selfRel, nil, map[int]func(*sectionWriter){secLinks: records(1, 0, 0, zigzag(1))})},
		{"escape outside the cluster space", "Inter-cluster links", "far end outside cluster space 4", one(secLinks, records(1, 0, 0, zigzag(2), 4))},
		{"escape to a candidate", "Inter-cluster links", "escaped far end 2 of cluster 0 is one of its candidates", one(secLinks, records(1, 0, 0, zigzag(2), 2))},
		{"near end outside the cluster space", "Inter-cluster links", "link 0 near end 0+4 outside cluster space 4", one(secLinks, records(1, 4, 0))},
		{"near end that wraps", "Inter-cluster links", "link 1 near end 2+18446744073709551615 outside cluster space 4", one(secLinks, records(2, 1, 0, 1<<64-1, 0))},
		{"near ends that descend", "Inter-cluster links", "link 1 near end 2+18446744073709551614 outside cluster space 4", one(secLinks, links([]Link{link(1, 1, 1), link(0, 1, 1)}, nil))},
		{"near ends whose runs split", "Inter-cluster links", "link 1 near end 3+18446744073709551614 outside cluster space 4", one(secLinks, links([]Link{link(2, 0, 1), link(1, 1, 1), link(2, 2, 1)}, nil))},
		{"a run of near ends past the count", "Inter-cluster links", "link 0 near end 0: a run of 1+1 links past the count 1", one(secLinks, records(1, 0, 1))},
		{"links before the relationships", "Inter-cluster links", "written before section AS relationships", rawAtlas(tb, a, linksFirst, nil)},
		{"latency at the bound", "Inter-cluster links", "at or past the 65536 ms bound", one(secLinks, links([]Link{{From: 0, To: 1, LatencyMS: 65536, Planes: 1}}, nil))},
		{"reverse latency at the bound", "Inter-cluster links", "at or past the 65536 ms bound", one(secLinks, links([]Link{link(0, 1, 1)}, []uint64{1}, zigzag(maxLatUnits-100), 1))},
		{"undefined plane bits", "Inter-cluster links", "undefined plane bits", one(secLinks, links([]Link{link(0, 1, 4)}, nil))},
		{"undefined plane bits on a reverse", "Inter-cluster links", "undefined plane bits", one(secLinks, links([]Link{link(0, 1, 1)}, []uint64{1}, 0, 4))},
		{"link outside the cluster space", "Inter-cluster links", "outside cluster space", one(secLinks, links([]Link{link(0, 4, 1)}, nil))},
		{"both directions of a pair written", "Inter-cluster links", "both directions", one(secLinks, links([]Link{link(0, 1, 1), link(1, 0, 2)}, nil))},
		{"a pair and its reverse written", "Inter-cluster links", "both directions", one(secLinks, links([]Link{link(0, 1, 1), link(1, 0, 2)}, []uint64{1}, 0, 2))},
		{"both directions of a later pair written", "Inter-cluster links", "both directions of link (2,3) written",
			one(secLinks, links([]Link{link(0, 2, 1), link(2, 3, 1), link(3, 0, 2), link(3, 2, 2)}, nil))},
		{"reverse flag of 2", "Inter-cluster links", "neither 0 nor 1", one(secLinks, links([]Link{link(0, 1, 1)}, []uint64{2}))},
		{"pair written from its higher end", "Inter-cluster links", "not its pair's lower key", one(secLinks, links([]Link{link(1, 0, 1)}, []uint64{1}, 0, 2))},
		{"self link paired with itself", "Inter-cluster links", "not its pair's lower key", one(secLinks, links([]Link{link(1, 1, 1)}, []uint64{1}, 0, 1))},
		{"reverse latency below zero", "Inter-cluster links", "below zero", one(secLinks, links([]Link{link(0, 1, 1)}, []uint64{1}, zigzag(-101), 2))},
		{"attachment outside the cluster space", "Prefix to cluster", "outside cluster space", one(secPrefixCluster, table(unsplit, []uint64{100, 101}, []uint64{zigzag(3), zigzag(1)}))},
		{"attachment below cluster 0", "Prefix to cluster", "outside cluster space", one(secPrefixCluster, table(unsplit, []uint64{100}, []uint64{zigzag(-1)}))},
		{"interface outside the cluster space", "Interface prefix to cluster", "outside cluster space", one(secIfaceCluster, table(unsplit, []uint64{200}, []uint64{1 << 31}))},
		{"over-bound correction", "Aggregated corrections", "bound", one(secGlobalAdjust, table(unsplit, []uint64{100}, []uint64{quantAdj(2 * MaxObservationFoldMS)}))},
		{"observed TTL of 0", "Observed-link lifetimes", "lifetime", one(secObservedLink, table(splitPair, []uint64{LinkKey(3, 2)}, []uint64{0}))},
		{"immortal attachment", "Observed-attachment lifetimes", "lifetime", one(secObservedAttach, table(unsplit, []uint64{101}, []uint64{ObservedTTLDays + 1}))},
		{"short AS table", "Cluster to AS", "does not match", one(secClusterAS, records(3, zigzag(7), 0, zigzag(1)))},
		{"cluster AS below 0", "Cluster to AS", "outside 32 bits", one(secClusterAS, records(4, zigzag(7), 0, zigzag(-8), 0))},
		{"lying record count", "Late-exit pairs", "exceeds limit", one(secLateExit, records(maxSectionRecords+1))},
		{"section twice", "Link loss rates", "appears twice", rawAtlas(tb, a, twice, nil)},
	}
}

// TestDecodeRejectsUnsortedKeys pins what both doors say to the hostile
// streams, and that they say the same.
func TestDecodeRejectsUnsortedKeys(t *testing.T) {
	if raw := rawAtlas(t, wireFixture(), nil, nil); !decodeBothWays(t, raw) {
		t.Fatal("the fixture itself does not decode")
	}
	// Any order of sections that puts each after the sections it is coded
	// against is a stream; Encode's is one of them.
	backwards := []int{secClusterAS, secRels, secPrefixCluster}
	for sec := numSections - 1; sec >= 0; sec-- {
		if !slices.Contains(backwards, sec) {
			backwards = append(backwards, sec)
		}
	}
	if !decodeBothWays(t, rawAtlas(t, wireFixture(), backwards, nil)) {
		t.Fatal("sections in another order do not decode")
	}
	for _, tc := range hostileAtlases(t) {
		t.Run(tc.name, func(t *testing.T) {
			_, mapErr := Decode(bytes.NewReader(tc.raw))
			_, flatErr := DecodeFlat(bytes.NewReader(tc.raw))
			for door, err := range map[string]error{"Decode": mapErr, "DecodeFlat": flatErr} {
				if err == nil {
					t.Fatalf("%s accepted the stream", door)
				}
				if msg := err.Error(); !strings.HasPrefix(msg, "atlas: decoding atlas: section "+tc.section) || !strings.Contains(msg, tc.complaint) {
					t.Fatalf("%s: %q, want section %q and %q", door, msg, tc.section, tc.complaint)
				}
			}
			if mapErr.Error() != flatErr.Error() {
				t.Fatalf("the doors disagree:\n Decode:     %v\n DecodeFlat: %v", mapErr, flatErr)
			}
		})
	}
}

// decodeBothWays holds the two doors to each other on one input. They accept
// or reject together; accepted, DecodeFlat's Flat passes Validate, is
// Compile(Decode(x)) field for field, and comes back unchanged from a trip
// through the map form. It reports whether the input was accepted.
func decodeBothWays(t testing.TB, data []byte) bool {
	t.Helper()
	a, mapErr := Decode(bytes.NewReader(data))
	f, flatErr := DecodeFlat(bytes.NewReader(data))
	if (mapErr == nil) != (flatErr == nil) {
		t.Fatalf("the doors disagree:\n Decode:     %v\n DecodeFlat: %v", mapErr, flatErr)
	}
	if mapErr != nil {
		return false
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("decoded flat fails Validate: %v", err)
	}
	sameFlat(t, f, Compile(a))
	// The serving form keeps one correction table for the shipped and the
	// local terms, so a shipped zero does not survive Inflate.
	if !slices.Contains(f.AdjustGlobal, 0) {
		sameFlat(t, Compile(f.Inflate()), f)
	}
	return true
}

// TestDecodeFlatMatchesCompile is the differential on built atlases, both
// days of one world, corrections and lifetime tables included.
func TestDecodeFlatMatchesCompile(t *testing.T) {
	for day := 0; day < 2; day++ {
		a, _, _ := buildTestAtlas(t, 31, day)
		i := 0
		for p := range a.PrefixCluster {
			a.GlobalAdjustMS[p] = float32(i%9) - 4.5
			a.ObservedAttach[p] = uint8(1 + i%ObservedTTLDays)
			if i++; i == 20 {
				break
			}
		}
		a.ObservedLinks[LinkKey(a.Links[0].From, a.Links[0].To)] = 2
		var buf bytes.Buffer
		if err := a.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if !decodeBothWays(t, buf.Bytes()) {
			t.Fatalf("day %d does not decode", day)
		}
		got, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		f, err := DecodeFlat(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		edgesMatchMaps(t, got, f)
		if len(got.ObservedAttach) != 20 || len(got.ObservedLinks) != 1 || len(got.GlobalAdjustMS) != 20 {
			t.Fatalf("day %d: Decode lost build-side tables: %d attachments, %d links, %d corrections",
				day, len(got.ObservedAttach), len(got.ObservedLinks), len(got.GlobalAdjustMS))
		}
	}
}

// allocated runs f and returns the bytes and objects it allocated.
func allocated(f func()) (bytes, objects uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	f()
	runtime.ReadMemStats(&ms1)
	return ms1.TotalAlloc - ms0.TotalAlloc, ms1.Mallocs - ms0.Mallocs
}

// gzipOf compresses a delta-stream header and body followed by pad zero
// bytes.
func gzipOf(tb testing.TB, body []byte, pad int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write([]byte(deltaMagic))
	gz.Write(body)
	zeros := make([]byte, 1<<20)
	for ; pad > 0; pad -= len(zeros) {
		gz.Write(zeros[:min(pad, len(zeros))])
	}
	if err := gz.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeDeltaRejectsBomb is the regression test for the one decoder
// that had no inflate limit and took its counts as they came: a delta of a
// few dozen kilobytes that inflates past the limit is rejected, and so is
// one whose first list claims 2^40 records, for the price of the reader's
// window — not of the list the bytes would have backed.
func TestDecodeDeltaRejectsBomb(t *testing.T) {
	body := func(varints ...uint64) []byte {
		var sw sectionWriter
		for _, v := range varints {
			sw.uvarint(v)
		}
		return sw.buf.Bytes()
	}
	for _, tc := range []struct {
		name, complaint string
		raw             []byte
	}{
		{"over the inflate limit", "decode limit", gzipOf(t, body(deltaVersion, 0, 1), maxDecodedBytes)},
		// After the base's name (a cluster count, four checksum bytes),
		// UpLinks claims 2^40 records; the zeros behind it would be 17M links.
		{"lying count", "exceeds limit", gzipOf(t, body(deltaVersion, 0, 1, 0, 0, 0, 0, 0, 1<<40), maxDecodedBytes+4<<20)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if len(tc.raw) > 128<<10 {
				t.Fatalf("the bomb is %d bytes itself", len(tc.raw))
			}
			var err error
			spent, _ := allocated(func() { _, err = DecodeDelta(bytes.NewReader(tc.raw)) })
			if err == nil || !strings.Contains(err.Error(), tc.complaint) {
				t.Fatalf("err %v, want a rejection naming %q", err, tc.complaint)
			}
			if spent > 1<<20 {
				t.Fatalf("rejecting %d bytes of delta allocated %d bytes", len(tc.raw), spent)
			}
		})
	}
}

// TestDecodeDeltaKeepsHostileLists pins the delta door's leniency: lists
// come back in stream order with their repeats, out-of-range IDs and all,
// for Flat.Apply to put in order — index lists too, which Apply resolves
// against its base and refuses only past a table's end.
func TestDecodeDeltaKeepsHostileLists(t *testing.T) {
	ups := []Link{{From: 3, To: 1, LatencyMS: 1, Planes: 1}, {From: 1, To: 3, LatencyMS: 2, Planes: 2}, {From: 3, To: 1, LatencyMS: 3, Planes: 1}}
	d, err := DecodeDelta(bytes.NewReader(rawDelta(t, baseName{}, 1, ups, &deltaRefs{delLinks: []uint64{9, 5, 5}}, []uint64{4, 4})))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(d.UpLinks, ups) {
		t.Fatalf("UpLinks = %v, want %v", d.UpLinks, ups)
	}
	if want := []uint64{9, 5, 5}; !slices.Equal(d.refs.delLinks, want) {
		t.Fatalf("removed link indices = %v, want %v", d.refs.delLinks, want)
	}
	if want := []uint64{4, 4}; !slices.Equal(d.AddTuples, want) {
		t.Fatalf("AddTuples = %v, want %v", d.AddTuples, want)
	}
	up := onBase(New(), &Delta{ToDay: 1, UpPrefixCluster: map[netsim.Prefix]cluster.ClusterID{1: 1 << 20}})
	var buf bytes.Buffer
	if err := up.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if d, err = DecodeDelta(&buf); err != nil || d.UpPrefixCluster[1] != 1<<20 {
		t.Fatalf("out-of-range upsert: %v, %v", d, err)
	}
}
