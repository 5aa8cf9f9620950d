package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"inano/bench/loadgen"
	"inano/internal/atlas"
	"inano/internal/cluster"
	"inano/internal/core"
	"inano/internal/netsim"
	"inano/internal/trace"
	"inano/sim"
)

// worldSeed fixes the synthetic Internet. Every run measures the same
// world and (loadgen fixes it) the same popularity ranking, so
// that atlas_bytes and delta_bytes are exact and a timing's run-to-run
// spread is the machine's, not a topology's or a hot set's; -seed varies
// the draws: which pair is asked when.
const worldSeed = 1

// size holds every count that depends on how large a run is.
type size struct {
	scale          sim.Scale
	vps, clientVPs int
	setups         int // times the world is built; setup_s reports their median
	minRounds      int
	ring           int // pre-generated pairs per stream
	hotDests       int // destination cardinality of the hot stream
	popular        int // destinations whose trees are warmed before a roll
	warmQueries    int // popular-stream queries asked before a roll, after one per destination
	postRoll       int // hot singles timed after a roll
	wideCache      int // core.Options.TreeCacheSize on lib_wide
	// Operations a roll_churn reader does before the roll starts: singles,
	// and pairs in StreamBatch windows.
	churnSingles, churnPairs int
	// Operations per trial, per round.
	libSingles, wideSingles, httpSingles int
	libWindows                           int // windows of core.DefaultStreamWindow pairs
	wideWindow                           int // pairs in lib_wide's one window
	httpStreams, httpLines               int
	layerReps                            int // repetitions of each per-layer timing
}

// fullSize is the benchmark proper: the Medium world (about 1 300
// clusters, 4 800 links, a 41 KB atlas, a 10 KB delta) is the largest the
// driver's time cap leaves room for once the world is built three times
// and each run still measures 30 rounds.
var fullSize = size{
	scale: sim.Medium, vps: 16, clientVPs: 8, setups: 3, minRounds: 30,
	ring: 1 << 16, hotDests: 512, popular: 64, warmQueries: 512, postRoll: 2000, wideCache: 64,
	churnSingles: 40_000, churnPairs: 2000,
	libSingles: 100_000, wideSingles: 300, httpSingles: 3000,
	libWindows: 100, wideWindow: 256, httpStreams: 4, httpLines: 8192,
	layerReps: 9,
}

// quickSize is -quick: a tiny world and three rounds, for tests.
var quickSize = size{
	scale: sim.Tiny, vps: 8, clientVPs: 4, setups: 1, minRounds: 3,
	ring: 1 << 12, hotDests: 64, popular: 16, warmQueries: 64, postRoll: 200, wideCache: 16,
	churnSingles: 2000, churnPairs: 200,
	libSingles: 2000, wideSingles: 50, httpSingles: 100,
	libWindows: 2, wideWindow: 64, httpStreams: 1, httpLines: 512,
	layerReps: 2,
}

// products is what one set-up hands the workloads: the measuring
// prefixes, the encoded artifacts, and the two reference atlases.
type products struct {
	srcs, dsts []netsim.Prefix
	bin0       []byte // encoded day-0 atlas
	flat0      []byte // its compiled serving form (INANOFL1)
	delta      []byte // encoded day 0 -> 1 delta
	// day0 is the decoded day-0 atlas; day1 is day0 with the decoded delta
	// applied — what a delta-following client must end up serving.
	day0, day1 *atlas.Atlas
	// phases holds the per-layer set-up timings, by per-layer metric name.
	phases map[string]float64
}

// buildProducts runs the whole server-side pipeline once: world, two
// measurement campaigns, two atlas builds, the diff and every encode.
//
// Day 1 is built over a clustering stabilized against day 0's
// (cluster.Stabilize, as experiments.Lab does). Two independent
// Campaign.BuildAtlas calls renumber the clusters, and a client that
// applies the delta between them answers almost nothing afterwards.
func buildProducts(sz size) (*products, error) {
	p := &products{phases: make(map[string]float64)}
	t := time.Now()
	w := sim.NewWorld(sz.scale, worldSeed)
	p.phases["sim.world_ms"] = ms(time.Since(t))
	p.srcs = w.VantagePoints(sz.vps + sz.clientVPs)
	p.dsts = w.EdgePrefixes()

	var built [2]*atlas.Atlas
	var prev *cluster.Clustering
	var campaign, build time.Duration
	_, alloc0 := mallocs()
	for day := range built {
		t = time.Now()
		c := w.Measure(sim.CampaignOptions{Day: day, VPs: p.srcs[:sz.vps], Targets: p.dsts, ClientVPs: p.srcs[sz.vps:]})
		campaign += time.Since(t)
		t = time.Now()
		var ifaces []netsim.IP
		for _, trs := range [][]trace.Traceroute{c.VPTraces, c.ClientTraces} {
			for _, tr := range trs {
				for _, h := range tr.Hops {
					if h.IP != 0 {
						ifaces = append(ifaces, h.IP)
					}
				}
			}
		}
		cl := cluster.Cluster(w.Top, ifaces, cluster.DefaultConfig())
		if prev != nil {
			cl = cluster.Stabilize(cl, prev)
		}
		prev = cl
		built[day] = atlas.Build(atlas.BuildInput{
			Top: w.Top, Day: w.Sim.Day(day), Meter: c.Meter(),
			VPTraces: c.VPTraces, ClientTraces: c.ClientTraces,
			BGPFeeds:   atlas.DefaultFeeds(w.Top, 8),
			ClusterCfg: cluster.DefaultConfig(), Clusters: cl,
		})
		build += time.Since(t)
	}
	_, alloc1 := mallocs()
	p.phases["trace.campaign_s"] = campaign.Seconds()
	p.phases["atlas.build_s"] = build.Seconds()
	p.phases["atlas.build_alloc_mb"] = float64(alloc1-alloc0) / (1 << 20)

	// The codec quantizes latencies, so everything downstream — the flat
	// form, the delta, the references — starts from decoded atlases.
	var decoded [2]*atlas.Atlas
	for day, a := range built {
		var buf bytes.Buffer
		t = time.Now()
		if err := a.Encode(&buf); err != nil {
			return nil, fmt.Errorf("encoding day %d: %w", day, err)
		}
		if day == 0 {
			p.phases["atlas.encode_ms"] = ms(time.Since(t))
			p.bin0 = buf.Bytes()
		}
		var err error
		if decoded[day], err = atlas.Decode(bytes.NewReader(buf.Bytes())); err != nil {
			return nil, fmt.Errorf("decoding day %d: %w", day, err)
		}
	}
	p.day0 = decoded[0]
	t = time.Now()
	d := atlas.Diff(decoded[0], decoded[1])
	p.phases["atlas.diff_ms"] = ms(time.Since(t))
	p.phases["atlas.delta_entries"] = float64(d.Entries())
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		return nil, fmt.Errorf("encoding delta: %w", err)
	}
	p.delta = buf.Bytes()
	dd, err := atlas.DecodeDelta(bytes.NewReader(p.delta))
	if err != nil {
		return nil, fmt.Errorf("decoding delta: %w", err)
	}
	p.day1 = p.day0.Clone()
	p.day1.Apply(dd)

	var fbuf bytes.Buffer
	t = time.Now()
	if err := atlas.WriteFlat(&fbuf, atlas.Compile(p.day0)); err != nil {
		return nil, fmt.Errorf("writing flat atlas: %w", err)
	}
	p.phases["atlas.flat_write_ms"] = ms(time.Since(t))
	p.flat0 = fbuf.Bytes()
	return p, nil
}

// query is one generated request with the answers it must get.
type query struct {
	src, dst netsim.IP
	// ref[d] is the reference answer on day d; ref[1] is nil in streams
	// that are never asked after a roll.
	ref [2]*core.PathInfo
}

func (q *query) prefixes() (src, dst netsim.Prefix) {
	return netsim.PrefixOf(q.src), netsim.PrefixOf(q.dst)
}

// reference answers pairs with a plain core.Engine over one of the two
// reference atlases — the single implementation every measured path is
// compared against. Answers are memoized per pair; nil means not found.
type reference struct {
	e    *core.Engine
	memo map[loadgen.Pair]*core.PathInfo
}

func newReference(a *atlas.Atlas) *reference {
	opts := core.INanoOptions()
	// fill visits destinations in order, so a few hundred trees (every
	// source's plus the current destination's) are all that is ever hot;
	// the default 4096 would hold tens of megabytes the run never needs.
	opts.TreeCacheSize = 512
	return &reference{e: core.New(a, opts), memo: make(map[loadgen.Pair]*core.PathInfo)}
}

// fill answers every (src, dst) of the two sets, destination-major so the
// engine builds each destination tree once.
func (r *reference) fill(srcs, dsts []netsim.Prefix) {
	for _, d := range dsts {
		for _, s := range srcs {
			k := loadgen.Pair{Src: uint32(s), Dst: uint32(d)}
			if _, done := r.memo[k]; done {
				continue
			}
			var ans *core.PathInfo
			if info := r.e.Query(s, d); info.Found && s != d {
				ans = &info
			}
			r.memo[k] = ans
		}
	}
}

// streams is the seeded input of one run.
type streams struct {
	hot     []query // Zipf(1) over hotDests destinations
	wide    []query // uniform over every destination (lib_wide only)
	popular []query // Zipf(1) over the hot stream's top destinations; both days' answers
	// popDests is one answerable query per popular destination, most
	// popular first: the warm-up before a roll, and (its first entry) the
	// query that ends load_ms and roll_pause_ms.
	popDests []query
}

func u32s(ps []netsim.Prefix) []uint32 {
	out := make([]uint32, len(ps))
	for i, p := range ps {
		out[i] = uint32(p)
	}
	return out
}

func prefixes(us []uint32) []netsim.Prefix {
	out := make([]netsim.Prefix, len(us))
	for i, u := range us {
		out[i] = netsim.Prefix(u)
	}
	return out
}

// makeStreams turns -seed into the run's query streams and computes the
// reference answer of every pair in them. Only pairs the reference
// answers on each day they are asked are kept, so no generated operation
// can fail on a correct program.
func makeStreams(p *products, sz size, seed int64, wide bool) *streams {
	ref := [2]*reference{newReference(p.day0), newReference(p.day1)}
	take := func(g *loadgen.Gen, days int) []query {
		dsts := prefixes(g.Ranked())
		sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
		for d := 0; d < days; d++ {
			ref[d].fill(p.srcs, dsts)
		}
		out := make([]query, sz.ring)
		for i := range out {
			pr := g.Next()
			q := query{src: netsim.Prefix(pr.Src).HostIP(), dst: netsim.Prefix(pr.Dst).HostIP()}
			for d := 0; d < days; d++ {
				q.ref[d] = ref[d].memo[pr]
			}
			out[i] = q
		}
		return out
	}
	keep := func(days int) func(loadgen.Pair) bool {
		return func(pr loadgen.Pair) bool {
			for d := 0; d < days; d++ {
				if ref[d].memo[pr] == nil {
					return false
				}
			}
			return true
		}
	}
	cfg := loadgen.Config{Seed: seed, Sources: u32s(p.srcs), Dests: u32s(p.dsts), MaxDests: sz.hotDests, ZipfS: 1, Keep: keep(1)}
	hot := loadgen.New(cfg)
	s := &streams{hot: take(hot, 1)}

	top := hot.Ranked()
	if len(top) > sz.popular {
		top = top[:sz.popular]
	}
	cfg.Dests, cfg.MaxDests, cfg.Keep = top, 0, keep(2)
	s.popular = take(loadgen.New(cfg), 2)
	for _, d := range top { // the same warm-up whatever the seed
		for _, src := range p.srcs {
			pr := loadgen.Pair{Src: uint32(src), Dst: d}
			if r0, r1 := ref[0].memo[pr], ref[1].memo[pr]; r0 != nil && r1 != nil {
				s.popDests = append(s.popDests, query{src: src.HostIP(), dst: netsim.Prefix(d).HostIP(), ref: [2]*core.PathInfo{r0, r1}})
				break
			}
		}
	}

	if wide {
		cfg.Dests, cfg.ZipfS, cfg.Keep = u32s(p.dsts), 0, keep(1)
		s.wide = take(loadgen.New(cfg), 1)
	}
	runtime.GC() // the reference engines' trees are garbage from here on
	return s
}
