// Command inano-eval regenerates the paper's tables and figures against a
// synthetic world and prints them in the layout of the paper's evaluation
// section. See docs/evaluation.md for every mode's invariants and repro
// one-liners.
//
// Usage:
//
//	inano-eval [-scale quick|medium|eval] [-seed N] [-exp all|table2|scaling|fig4|loss|fig5|fig6|fig7|fig8|fig9|fig10|fig11]
//
// With -scenario it replays an adversarial timeline from
// internal/scenario (churn, partition, flashcrowd, rollback) and exits
// nonzero if any hard invariant fails; -scenario-mutate arms a known-bad
// sabotage that must make the replay fail:
//
//	inano-eval -scenario partition -scale quick -seed 42
//	inano-eval -scenario partition -scenario-mutate skip-missed  # must exit 1
//
// With -scale-build it generates an internet-scale synthetic world
// (power-law AS graph) and builds its atlas out-of-core through the
// streaming two-pass builder, verifying that the .bin and flat load
// paths serve byte-identical answers and (optionally) that peak RSS
// stayed under a bound:
//
//	inano-eval -scale-build -scale-ases 50000 -scale-prefixes 1000000 -max-rss-mb 2036
//
// With -loadgen it instead drives a running inanod daemon with serving
// workloads (concurrent singles or streamed batches) and reports
// client-observed latency percentiles and throughput:
//
//	inano-eval -loadgen http://127.0.0.1:7353 -load-atlas atlas.bin -load-n 50000 -load-conc 16
//	inano-eval -loadgen http://127.0.0.1:7353 -load-atlas atlas.bin -load-n 200000 -load-batch 50000 -load-conc 4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"inano/internal/experiments"
	"inano/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// gate collects invariant verdicts for an eval mode: every mode shares
// this one failure/exit-code discipline instead of hand-rolling
// Fprintln+Exit. Usage errors are not gate failures — they exit 2 at the
// dispatch layer; gate failures are violated invariants and exit 1.
type gate struct {
	stderr   io.Writer
	failures []string
}

// Check records one invariant; a false ok prints the message to stderr
// (prefixed "inano-eval:") and marks the run failed. Returns ok.
func (g *gate) Check(ok bool, format string, args ...any) bool {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		fmt.Fprintln(g.stderr, "inano-eval:", msg)
		g.failures = append(g.failures, msg)
	}
	return ok
}

// Code is the process exit code the gate's verdicts imply.
func (g *gate) Code() int {
	if len(g.failures) > 0 {
		return 1
	}
	return 0
}

// run is main without the process: flags parse from args, output goes to
// the given writers, and the exit code is returned (0 = pass, 1 =
// invariant failure, 2 = usage error). Tests drive it directly.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("inano-eval", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.String("scale", "medium", "world scale: quick, medium, or eval")
	seed := fs.Int64("seed", 42, "world seed")
	exp := fs.String("exp", "all", "experiment to run (comma-separated), or all")
	feedbackMode := fs.Bool("feedback", false, "run the measurement-feedback-loop experiment (error before/after corrective probes)")
	fbBudget := fs.Int("feedback-budget", 8, "corrective probes per round in -feedback mode")
	fbRounds := fs.Int("feedback-rounds", 4, "corrective rounds in -feedback mode")
	upstreamMode := fs.Bool("upstream", false, "run the upstream-observation-sharing replay (non-reporting client error before/after the aggregated delta)")
	upStructMode := fs.Bool("upstream-structure", false, "run the structural upstream replay (non-reporting client hop-level path accuracy before/after the hop-fold delta)")
	upReporters := fs.Int("upstream-reporters", 0, "reporting clients in -upstream/-upstream-structure mode (0 = all validation sources but one)")
	upMinReporters := fs.Int("upstream-min-reporters", 3, "min distinct reporters behind a folded aggregate in -upstream/-upstream-structure mode")
	scenarioName := fs.String("scenario", "", "replay an adversarial scenario: churn, partition, flashcrowd, or rollback")
	scenarioMut := fs.String("scenario-mutate", "", "arm a known-bad mutation of the chosen -scenario (the replay must then fail)")
	scaleBuild := fs.Bool("scale-build", false, "generate an internet-scale synthetic world and build its atlas out-of-core")
	scaleASes := fs.Int("scale-ases", 3000, "AS count of the -scale-build world")
	scalePrefixes := fs.Int("scale-prefixes", 20000, "edge prefix count of the -scale-build world")
	scaleVPs := fs.Int("scale-vps", 24, "vantage points of the -scale-build campaign")
	scaleTargetsPerVP := fs.Int("scale-targets-per-vp", 0, "per-VP probe-target cap in -scale-build (0 = full edge coverage)")
	scaleClients := fs.Int("scale-clients", 8, "reporting clients of the -scale-build campaign")
	scaleVerifyPairs := fs.Int("scale-verify-pairs", 2000, "query pairs verified across the .bin and flat load paths in -scale-build")
	maxRSSMB := fs.Int("max-rss-mb", 0, "fail -scale-build if peak RSS (VmHWM) exceeds this many MB (0 = no bound)")
	loadgen := fs.String("loadgen", "", "load-generator mode: base URL of a running inanod (e.g. http://127.0.0.1:7353)")
	loadAtlas := fs.String("load-atlas", "atlas.bin", "atlas file the daemon serves (source of queryable prefixes)")
	loadN := fs.Int("load-n", 10_000, "total queries (singles) or pairs (batch) to issue")
	loadConc := fs.Int("load-conc", 8, "concurrent workers (singles) or streams (batch)")
	loadBatch := fs.Int("load-batch", 0, "pairs per /v1/batch stream; 0 = single-query mode")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	g := &gate{stderr: stderr}

	if *loadgen != "" {
		if err := runLoadgen(loadgenConfig{
			baseURL:   *loadgen,
			atlasPath: *loadAtlas,
			n:         *loadN,
			conc:      *loadConc,
			batch:     *loadBatch,
			seed:      *seed,
		}); err != nil {
			fmt.Fprintln(stderr, "inano-eval: loadgen:", err)
			return 1
		}
		return 0
	}

	if *scaleBuild {
		return runScaleBuild(scaleBuildConfig{
			seed: *seed, ases: *scaleASes, prefixes: *scalePrefixes,
			vps: *scaleVPs, targetsPerVP: *scaleTargetsPerVP, clients: *scaleClients,
			verifyPairs: *scaleVerifyPairs, maxRSSMB: *maxRSSMB,
		}, stdout, stderr)
	}

	if *scenarioName != "" {
		if *scale != "quick" && *scale != "medium" {
			fmt.Fprintf(stderr, "inano-eval: -scenario supports -scale quick or medium, not %q\n", *scale)
			return 2
		}
		rep, err := scenario.Replay(*scenarioName, scenario.Config{
			Seed: *seed, Scale: *scale, Mutation: *scenarioMut,
		})
		if err != nil {
			fmt.Fprintln(stderr, "inano-eval:", err)
			return 2
		}
		fmt.Fprintf(stdout, "# iPlane Nano scenario replay — scale=%s seed=%d\n", *scale, *seed)
		fmt.Fprint(stdout, rep.Render())
		g.Check(rep.Err() == nil, "%v", rep.Err())
		return g.Code()
	}

	var cfg experiments.Config
	switch *scale {
	case "quick":
		cfg = experiments.QuickConfig(*seed)
	case "medium":
		cfg = experiments.MediumConfig(*seed)
	case "eval":
		cfg = experiments.EvalConfig(*seed)
	default:
		fmt.Fprintf(stderr, "inano-eval: unknown scale %q\n", *scale)
		return 2
	}

	if *upStructMode {
		fmt.Fprintf(stdout, "# iPlane Nano upstream structure — scale=%s seed=%d\n", *scale, *seed)
		lab := experiments.NewLab(cfg)
		fmt.Fprintf(stdout, "world: %s\n\n", lab.W.Top.Stats())
		res := experiments.UpstreamStructure(lab, *upReporters, *upMinReporters)
		fmt.Fprint(stdout, res.Render())
		g.Check(res.AccAfter > res.AccBefore, "hop-fold delta did not improve the non-reporter's hop-level path accuracy")
		g.Check(res.FabricatedShipped == 0, "a single lying reporter shipped fabricated path structure")
		return g.Code()
	}

	if *upstreamMode {
		fmt.Fprintf(stdout, "# iPlane Nano upstream sharing — scale=%s seed=%d\n", *scale, *seed)
		lab := experiments.NewLab(cfg)
		fmt.Fprintf(stdout, "world: %s\n\n", lab.W.Top.Stats())
		res := experiments.UpstreamLoop(lab, *upReporters, *upMinReporters)
		fmt.Fprint(stdout, res.Render())
		g.Check(res.ErrAfter < res.ErrBefore, "aggregated delta did not reduce the non-reporter's mean prediction error")
		g.Check(res.AdvWithin, "adversarial reporter escaped the median bound")
		return g.Code()
	}

	if *feedbackMode {
		fmt.Fprintf(stdout, "# iPlane Nano feedback loop — scale=%s seed=%d\n", *scale, *seed)
		lab := experiments.NewLab(cfg)
		fmt.Fprintf(stdout, "world: %s\n\n", lab.W.Top.Stats())
		res := experiments.FeedbackLoop(lab, *fbBudget, *fbRounds)
		fmt.Fprint(stdout, res.Render())
		g.Check(res.ErrAfter < res.ErrBefore, "feedback loop did not reduce mean prediction error")
		return g.Code()
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	sel := func(name string) bool { return all || want[name] }

	start := time.Now()
	fmt.Fprintf(stdout, "# iPlane Nano evaluation — scale=%s seed=%d\n", *scale, *seed)
	lab := experiments.NewLab(cfg)
	fmt.Fprintf(stdout, "world: %s\n", lab.W.Top.Stats())
	fmt.Fprintf(stdout, "campaign: %d vantage points x %d targets, %d validation sources\n\n",
		len(lab.VPs), len(lab.Targets), len(lab.ValSrcs))

	section := func(name string, f func() string) {
		if !sel(name) {
			return
		}
		t0 := time.Now()
		out := f()
		fmt.Fprintf(stdout, "%s\n[%s in %v]\n\n", out, name, time.Since(t0).Round(time.Millisecond))
	}

	section("table2", func() string { return experiments.Table2AtlasSize(lab).Render() })
	section("scaling", func() string { return experiments.VantagePointScaling(lab, 4, 20, 20).Render() })
	section("fig4", func() string { return experiments.Fig4PathStationarity(lab).Render() })
	section("loss", func() string { return experiments.LossStationarity(lab, 3000).Render() })
	section("fig5", func() string { return experiments.Fig5Accuracy(lab).Render() })
	section("fig6", func() string { return experiments.Fig6LatencyError(lab).Render() })
	section("fig7", func() string { return experiments.Fig7ClosestRanking(lab).Render() })
	section("fig8", func() string { return experiments.Fig8LossError(lab).Render() })
	section("fig9", func() string {
		a := experiments.Fig9CDN(lab, 30_000, 199, 5).Render()
		b := experiments.Fig9CDN(lab, 1_500_000, 199, 5).Render()
		return a + "\n" + b
	})
	section("fig10", func() string { return experiments.Fig10VoIP(lab, 1200).Render() })
	section("fig11", func() string { return experiments.Fig11Detour(lab, 30, 8).Render() })

	fmt.Fprintf(stdout, "total: %v\n", time.Since(start).Round(time.Millisecond))
	return 0
}
