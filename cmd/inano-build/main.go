// Command inano-build runs one day's measurement campaign against a
// synthetic world and writes the resulting atlas (and, for day > 0, the
// delta from the previous day) — the server side of §5.
//
// With -observations it folds an aggregated client-observation snapshot
// (written by inanod -aggregate -obs-snapshot) into the build: scalar
// residuals become the GlobalAdjustMS dataset, and reporter-agreed hop
// paths become real links and attachment entries (FoldPaths) — so
// client-measured ground truth, structural coverage included, ships to
// every peer inside the ordinary daily delta.
//
// A correction's lifecycle across days is managed through -prev: pass the
// previous day's *archived* atlas (the -o output, corrections included)
// and the build carries yesterday's corrections forward — re-supported
// prefixes keep theirs, unsupported ones halve and expire, and the delta
// (diffed against that same archive) ships the updates and deletions
// clients need to stay exactly in sync. Without -prev the day-1 base is
// rebuilt plain, which ships today's corrections but cannot expire
// yesterday's on clients that follow deltas.
//
// Cluster IDs are stable across days: day d is clustered against day
// d-1's clustering (cluster.Stabilize, chained from day 0 — the synthetic
// world is deterministic, so every invocation recomputes the same chain),
// standing in for the production server's persistent cluster registry.
// Without that the two days of a delta would number their clusters
// independently and a client following the delta could answer next to
// nothing.
//
// Usage:
//
//	inano-build [-scale tiny|medium|eval] [-seed N] [-day D] [-vps N] [-o atlas.bin] [-delta delta.bin]
//	inano-build -delta delta0.bin -observations obs.json                 # day-0 correction-only delta
//	inano-build -day 1 -prev atlas0.bin -delta delta1.bin -observations obs.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"inano/internal/atlas"
	"inano/internal/cluster"
	"inano/internal/feedback"
	"inano/internal/metrics"
	"inano/internal/netsim"
	"inano/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: 0 on success, 1 on a failed build or write, 2 on a
// usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("inano-build", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.String("scale", "medium", "world scale: tiny, medium, or eval")
	seed := fs.Int64("seed", 42, "world seed")
	day := fs.Int("day", 0, "measurement day")
	vps := fs.Int("vps", 60, "number of vantage points")
	out := fs.String("o", "atlas.bin", "output atlas file")
	flatOut := fs.String("flat", "", "also write the compiled flat serving form (mmap-able by inanod -atlas-flat) to this file")
	deltaOut := fs.String("delta", "", "also write the delta from the previous day to this file")
	prevPath := fs.String("prev", "", "previous day's archived atlas (the -o output, corrections included): delta base and carried-correction source; default rebuilds the previous day without corrections")
	obsPath := fs.String("observations", "", "aggregated observation snapshot (inanod -obs-snapshot) to fold into the build")
	obsMinReporters := fs.Int("obs-min-reporters", 3, "fold only aggregates backed by at least this many reporting source clusters")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *day < 0 {
		fmt.Fprintf(stderr, "inano-build: -day %d is negative\n", *day)
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "inano-build:", err)
		return 1
	}

	var sc sim.Scale
	switch *scale {
	case "tiny":
		sc = sim.Tiny
	case "medium":
		sc = sim.Medium
	case "eval":
		sc = sim.Eval
	default:
		fmt.Fprintf(stderr, "inano-build: unknown scale %q\n", *scale)
		return 2
	}

	// stage adds the wall time since the last call to the named pipeline
	// stage; the stages print, in first-use order, once everything is written.
	var stages []string
	spent := make(map[string]time.Duration)
	last := time.Now()
	stage := func(name string) {
		if _, seen := spent[name]; !seen {
			stages = append(stages, name)
		}
		spent[name] += time.Since(last)
		last = time.Now()
	}

	w := sim.NewWorld(sc, *seed)
	stage("world")
	fmt.Fprintf(stdout, "world: %s\n", w.Top.Stats())
	vpList := w.VantagePoints(*vps)
	targets := w.EdgePrefixes()

	// Measure every day up to -day, each clustered against the one before,
	// and keep the last two campaigns with their clusterings: today's
	// build, and yesterday's should the delta need it as its base.
	type measured struct {
		c  *sim.Campaign
		cl *cluster.Clustering
	}
	var today, yesterday measured
	for d := 0; d <= *day; d++ {
		c := w.Measure(sim.CampaignOptions{Day: d, VPs: vpList, Targets: targets})
		stage("campaign")
		yesterday, today = today, measured{c, c.Clusters(today.cl)}
		stage("cluster")
	}
	var residuals map[netsim.Prefix]float64
	var agreedPaths []atlas.ObservedPath
	if *obsPath != "" {
		snap, err := feedback.LoadSnapshot(*obsPath)
		if err != nil {
			return fatal(err)
		}
		residuals = snap.Residuals(*obsMinReporters)
		agreedPaths = snap.AgreedPaths(*obsMinReporters)
		fmt.Fprintf(stdout, "observations: %d aggregated prefixes, %d folded (>= %d reporters)\n",
			len(snap.Prefixes), len(residuals), *obsMinReporters)
		fmt.Fprintf(stdout, "observations: %d voted path tails, %d agreed (>= %d reporters per link)\n",
			len(snap.Paths), len(agreedPaths), *obsMinReporters)
	}
	var prev *atlas.Atlas
	if *prevPath != "" {
		pf, err := os.Open(*prevPath)
		if err != nil {
			return fatal(err)
		}
		prev, err = atlas.Decode(pf)
		pf.Close()
		if err != nil {
			return fatal(err)
		}
	}
	stage("inputs")
	plain := today.c.BuildAtlasOver(today.cl)
	stage("build")
	if prev != nil && len(prev.GlobalAdjustMS) > 0 {
		// Yesterday's corrections carry onto today's build: fresh
		// residuals keep theirs full strength, unsupported ones halve and
		// expire — so the delta below can ship the deletions.
		carried := atlas.CarryCorrections(plain, prev, residuals)
		fmt.Fprintf(stdout, "observations: %d corrections carried from %s\n", carried, *prevPath)
	}
	if prev != nil && (len(prev.ObservedLinks) > 0 || len(prev.ObservedAttach) > 0) {
		// Crowd-observed structure decays the same way: entries the
		// campaign re-measured graduate, entries today's snapshot
		// re-agrees on re-fold at full lifetime below, the rest lose one
		// roll and eventually drop — shipping the deletions in the delta.
		carried, dropped := atlas.CarryFoldedPaths(plain, prev)
		fmt.Fprintf(stdout, "observations: %d observed links/attachments carried from %s, %d expired\n",
			carried, *prevPath, dropped)
	}
	a := plain
	if len(residuals) > 0 {
		var folded int
		a, folded = atlas.FoldObservations(plain, residuals)
		fmt.Fprintf(stdout, "observations: %d corrections shipped in the atlas\n", folded)
	}
	if len(agreedPaths) > 0 {
		if a == plain {
			a = plain.Clone()
		}
		st := atlas.FoldPaths(a, agreedPaths)
		fmt.Fprintf(stdout, "observations: %d agreed paths folded (%d new links, %d refreshed, %d already measured, %d new attachments, %d skipped)\n",
			st.PathsFolded, st.NewLinks, st.RefreshedLinks, st.MeasuredLinks, st.NewAttach, st.PathsSkipped)
	}
	stage("fold")
	f, err := os.Create(*out)
	if err != nil {
		return fatal(err)
	}
	if err := a.Encode(f); err != nil {
		return fatal(err)
	}
	if err := f.Close(); err != nil {
		return fatal(err)
	}
	stage("encode")
	fmt.Fprintf(stdout, "day %d atlas: %d clusters, %d links, %d tuples -> %s (%d bytes)\n",
		*day, a.NumClusters, len(a.Links), len(a.Tuples), *out, a.EncodedSize())
	for _, s := range a.SectionSizes() {
		fmt.Fprintf(stdout, "  %-38s %8d entries %8d bytes\n", s.Name, s.Entries, s.Compressed)
	}
	if *flatOut != "" {
		// Decode the -o file as a daemon that loads it does, not the
		// in-memory atlas: the codec quantizes latencies, and the flat form
		// must serve bit-identical answers to that daemon.
		af, err := os.Open(*out)
		if err != nil {
			return fatal(err)
		}
		fl, err := atlas.DecodeFlat(af)
		af.Close()
		if err != nil {
			return fatal(err)
		}
		ff, err := os.Create(*flatOut)
		if err != nil {
			return fatal(err)
		}
		if err := atlas.WriteFlat(ff, fl); err != nil {
			return fatal(err)
		}
		if err := ff.Close(); err != nil {
			return fatal(err)
		}
		stage("flat")
		st, err := os.Stat(*flatOut)
		if err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stdout, "day %d flat serving form: %d edges -> %s (%d bytes)\n",
			*day, fl.NumEdges(), *flatOut, st.Size())
	}

	if *deltaOut != "" && (*day > 0 || prev != nil || a != plain) {
		// The delta's base is the archived previous atlas (-prev) when
		// given, else yesterday's rebuild; at day 0 with folded
		// observations it is today's *plain* build instead, yielding a
		// correction-only delta (FromDay == ToDay) — an intra-day push of
		// the aggregated corrections to clients already serving today's
		// atlas.
		base := prev
		if base == nil {
			base = plain
			if *day > 0 {
				base = yesterday.c.BuildAtlasOver(yesterday.cl)
				stage("build")
			}
		}
		d := atlas.Diff(base, a)
		df, err := os.Create(*deltaOut)
		if err != nil {
			return fatal(err)
		}
		if err := d.Encode(df); err != nil {
			return fatal(err)
		}
		if err := df.Close(); err != nil {
			return fatal(err)
		}
		stage("delta")
		fmt.Fprintf(stdout, "delta day %d -> %d: %d entries -> %s (%d bytes)\n",
			d.FromDay, d.ToDay, d.Entries(), *deltaOut, d.EncodedSize())
	}
	for _, name := range stages {
		fmt.Fprintf(stdout, "stage %-8s %8.3f s\n", name, spent[name].Seconds())
	}
	if mb, ok := metrics.PeakRSSMB(); ok {
		fmt.Fprintf(stdout, "peak RSS: %d MB\n", mb)
	}
	return 0
}
