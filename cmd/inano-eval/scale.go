package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	inano "inano"
	"inano/internal/atlas"
	"inano/internal/metrics"
	"inano/internal/netsim"
	"inano/internal/trace"
)

// scaleBuildConfig sizes the -scale-build mode.
type scaleBuildConfig struct {
	seed         int64
	ases         int
	prefixes     int
	vps          int
	targetsPerVP int
	clients      int
	verifyPairs  int
	maxRSSMB     int
}

// runScaleBuild generates an internet-scale synthetic world, builds its
// atlas out-of-core via the streaming two-pass builder (the traceroute
// corpus is synthesized twice and never materialized), writes the .bin
// and flat serving forms to disk, and verifies that both load paths
// serve byte-identical answers on a deterministic query workload.
// With -max-rss-mb it also gates the process's peak RSS — the proof the
// build stayed out-of-core.
func runScaleBuild(cfg scaleBuildConfig, stdout, stderr io.Writer) int {
	g := &gate{stderr: stderr}
	if cfg.vps < 1 || cfg.clients < 1 {
		fmt.Fprintf(stderr, "inano-eval: -scale-vps %d and -scale-clients %d must each be at least 1\n", cfg.vps, cfg.clients)
		return 2
	}
	wc := netsim.DefaultScaleConfig(cfg.seed)
	wc.ASes = cfg.ases
	wc.Prefixes = cfg.prefixes
	if cfg.ases >= 20000 {
		// Big worlds get the million-scale shape (more tier-1s, denser
		// peering) so the graph stays realistic as it grows.
		wc = netsim.MillionScaleConfig(cfg.seed)
		wc.ASes = cfg.ases
		wc.Prefixes = cfg.prefixes
	}
	if err := wc.Validate(); err != nil {
		fmt.Fprintln(stderr, "inano-eval: scale config:", err)
		return 2
	}

	start := time.Now()
	fmt.Fprintf(stdout, "# iPlane Nano out-of-core scale build — seed=%d\n", cfg.seed)
	w := netsim.GenerateScale(wc)
	fmt.Fprintf(stdout, "world: %s [generated in %v]\n", w.Stats(), time.Since(start).Round(time.Millisecond))

	vps, clients := w.Population(cfg.vps, cfg.clients)
	camp := &trace.ScaleCampaign{
		W: w, VPs: vps, TargetsPerVP: cfg.targetsPerVP,
		ClientSrcs: clients, ClientDsts: 50,
	}
	sb := atlas.NewStreamBuilder(atlas.StreamInput{
		Tools:         atlas.NewScaleTools(w, 8),
		Day:           0,
		PrefsMaxDests: 512,
	})
	t0 := time.Now()
	traces := 0
	camp.Run(func(tr *trace.Traceroute, _ bool) bool { sb.ObserveIfaces(tr); traces++; return true })
	sb.StartTraces()
	camp.Run(func(tr *trace.Traceroute, fromVP bool) bool { sb.AddTrace(tr, fromVP); return true })
	a := sb.Finish()
	c := a.Counts()
	fmt.Fprintf(stdout, "build: %d traces/pass (streamed, never materialized), %d clusters, %d links, %d prefix attachments [%v]\n",
		traces, a.NumClusters, c.Links, c.PrefixCluster, time.Since(t0).Round(time.Millisecond))
	if !g.Check(c.Links > 0 && c.PrefixCluster > 0 && c.PrefixAS > 0, "streamed atlas is populated (%+v)", c) {
		return g.Code()
	}

	// Ship both serving forms to disk, then reload through the two load
	// paths clients actually take.
	dir, err := os.MkdirTemp("", "inano-scale")
	if !g.Check(err == nil, "temp dir: %v", err) {
		return g.Code()
	}
	defer os.RemoveAll(dir)
	binPath := filepath.Join(dir, "atlas.bin")
	flatPath := filepath.Join(dir, "atlas.flat")

	bf, err := os.Create(binPath)
	if !g.Check(err == nil, "create %s: %v", binPath, err) {
		return g.Code()
	}
	bw := bufio.NewWriterSize(bf, 1<<20)
	t1 := time.Now()
	if err := a.Encode(bw); !g.Check(err == nil, "encode atlas: %v", err) {
		return g.Code()
	}
	encodeTook := time.Since(t1)
	if err := bw.Flush(); !g.Check(err == nil, "flush atlas: %v", err) {
		return g.Code()
	}
	bf.Close()
	binInfo, _ := os.Stat(binPath)

	// The flat file is the build side's to write: the map door, compiled.
	ff, err := os.Open(binPath)
	if !g.Check(err == nil, "open %s: %v", binPath, err) {
		return g.Code()
	}
	dec, err := atlas.Decode(bufio.NewReaderSize(ff, 1<<20))
	ff.Close()
	if !g.Check(err == nil, "decode atlas.bin: %v", err) {
		return g.Code()
	}
	wf, err := os.Create(flatPath)
	if !g.Check(err == nil, "create %s: %v", flatPath, err) {
		return g.Code()
	}
	fw := bufio.NewWriterSize(wf, 1<<20)
	if err := atlas.WriteFlat(fw, atlas.Compile(dec)); !g.Check(err == nil, "write flat: %v", err) {
		return g.Code()
	}
	if err := fw.Flush(); !g.Check(err == nil, "flush flat: %v", err) {
		return g.Code()
	}
	wf.Close()
	flatInfo, _ := os.Stat(flatPath)
	fmt.Fprintf(stdout, "serving forms: atlas.bin %d B (encoded in %v), atlas.flat %d B\n",
		binInfo.Size(), encodeTook.Round(time.Millisecond), flatInfo.Size())
	// Where the .bin's bytes go: each dataset gzipped on its own (Table 2).
	for _, sec := range a.SectionSizes() {
		fmt.Fprintf(stdout, "  dataset %-36s %9d entries %9d B\n", sec.Name, sec.Entries, sec.Compressed)
	}

	// The two doors a serving client starts through, each timed; a load
	// that went through maps would show in the heap the .bin load keeps.
	heap0 := heapInUse()
	t1 = time.Now()
	ff, err = os.Open(binPath)
	if !g.Check(err == nil, "open %s: %v", binPath, err) {
		return g.Code()
	}
	engBin, err := inano.Load(bufio.NewReaderSize(ff, 1<<20))
	ff.Close()
	if !g.Check(err == nil, "load atlas.bin: %v", err) {
		return g.Code()
	}
	loadTook := time.Since(t1)
	heapKept := heapInUse() - heap0
	t1 = time.Now()
	mm, err := atlas.OpenFlat(flatPath, true)
	if !g.Check(err == nil, "open flat: %v", err) {
		return g.Code()
	}
	defer mm.Close()
	engFlat := inano.FromFlat(mm.Flat)
	fmt.Fprintf(stdout, "start-up: atlas.bin through inano.Load in %v (heap in use after GC %+.1f MB), atlas.flat through OpenFlat in %v\n",
		loadTook.Round(time.Millisecond), float64(heapKept)/(1<<20), time.Since(t1).Round(time.Millisecond))

	// Deterministic verification workload: each client source queries a
	// stride of edge prefixes; both load paths must agree byte-for-byte.
	t1 = time.Now()
	total := w.NumPrefixes()
	per := cfg.verifyPairs / len(clients)
	if per < 1 {
		per = 1
	}
	checked, found, mismatches := 0, 0, 0
	binSnap, flatSnap := engBin.Snapshot(), engFlat.Snapshot()
	for ci, src := range clients {
		for k := 0; k < per; k++ {
			dst := w.EdgePrefixAt((ci*7919 + k*104729) % total)
			if src == dst {
				continue
			}
			ib, _ := binSnap.Query(context.Background(), src, dst)  // the background context never ends
			fb, _ := flatSnap.Query(context.Background(), src, dst) // likewise
			if fmt.Sprintf("%+v", ib) != fmt.Sprintf("%+v", fb) {
				mismatches++
			}
			if ib.Found {
				found++
			}
			checked++
		}
	}
	fmt.Fprintf(stdout, "verify: %d pairs, %d answered, %d load-path mismatches [%v]\n",
		checked, found, mismatches, time.Since(t1).Round(time.Millisecond))
	// What a cold tree costs at this size: the flat client searched one a
	// new destination (a first ask stops where its answer is final).
	st := engFlat.CacheStats()
	fmt.Fprintf(stdout, "cold trees: %d builds, %.2f ms a build, %.1f KB a resident tree, %d resident, %d suspended\n",
		st.Builds, float64(st.BuildNS)/1e6/float64(max(st.Builds, 1)), float64(st.Bytes)/1024/float64(max(st.Len, 1)), st.Len, st.Suspended)
	g.Check(found > 0, "scale atlas answered %d/%d verification pairs", found, checked)
	g.Check(mismatches == 0, ".bin and flat load paths byte-identical on %d pairs (%d mismatches)", checked, mismatches)

	if rss, ok := metrics.PeakRSSMB(); ok {
		fmt.Fprintf(stdout, "peak RSS: %d MB\n", rss)
		if cfg.maxRSSMB > 0 {
			g.Check(rss <= cfg.maxRSSMB, "peak RSS %d MB within bound %d MB", rss, cfg.maxRSSMB)
		}
	} else if cfg.maxRSSMB > 0 {
		g.Check(false, "peak RSS unavailable on this platform but -max-rss-mb set")
	}
	fmt.Fprintf(stdout, "total: %v\n", time.Since(start).Round(time.Millisecond))
	return g.Code()
}

// heapInUse is the heap in use after a collection, in bytes: unlike the
// peak RSS, which the build has set long before, it can fall.
func heapInUse() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}
