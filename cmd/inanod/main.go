// Command inanod is the iNano query daemon: it loads a compact atlas (from
// a file or the P2P swarm), serves path-prediction queries over HTTP, keeps
// the atlas fresh by hot-applying daily deltas, and exposes Prometheus
// metrics — the always-on serving shape of the paper's §5 client, grown
// into a service any peer can run.
//
// Endpoints: /v1/query, /v1/batch (streamed NDJSON), /v1/rank,
// /v1/feedback (observation reports), /v1/relay (relay selection),
// /healthz, /metrics, /debug/stats. See internal/server for the API
// contract.
//
// Usage:
//
//	inanod -atlas atlas.bin
//	inanod -atlas atlas.bin -listen 127.0.0.1:7353 -deadline 2s
//	inanod -atlas atlas.bin -watch-delta delta.bin -watch-interval 5s
//	inanod -fetch-manifest atlas.manifest -delta-manifest delta.manifest
//	inanod -atlas atlas.bin -probe-sim tiny:42 -correct-interval 30s -correct-budget 8
//	inanod -atlas atlas.bin -aggregate -obs-snapshot obs.json          (build server)
//	inanod -atlas atlas.bin -probe-sim tiny:42 \
//	       -upload-observations http://build:7353/v1/observations      (sharing client)
//
// With -probe-sim the daemon closes the measurement feedback loop:
// observations POSTed to /v1/feedback are aggregated per destination, and
// a background corrector spends -correct-budget traceroutes per
// -correct-interval on the worst mispredictions, probing the named
// synthetic world (scale:seed must match the served atlas's inano-build
// invocation). Real deployments plug a real traceroute prober in via
// server.RunCorrector.
//
// The loop's upstream half (§5 both ways): with -upload-observations the
// daemon opts in to sharing its corrective observations with a build
// server; with -aggregate it *is* the build server's ingest — clients'
// observations POSTed to /v1/observations are validated against the
// serving atlas, robustly aggregated (median per destination prefix
// across reporting source clusters), and periodically snapshotted to
// -obs-snapshot, where inano-build -observations folds them into the next
// daily delta for the whole swarm.
//
// The daemon shuts down cleanly on SIGINT/SIGTERM, draining in-flight
// requests, and prints "inanod: shutdown complete" when done.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	inano "inano"
	"inano/internal/atlas"
	"inano/internal/feedback"
	"inano/internal/server"
	"inano/internal/swarm"
	"inano/internal/trace"
	"inano/sim"
)

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so a peer that opens connections and sends nothing
// cannot hold them (and their goroutines) forever. Bodies are not bounded
// here: /v1/batch streams for as long as its producer does.
const readHeaderTimeout = 10 * time.Second

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it serves until ctx ends, shuts down and returns 0;
// 1 when the flags ask for what cannot be (-atlas-flat with -atlas or
// -fetch-manifest, -obs-snapshot without -aggregate, a bad -probe-sim), no
// atlas is named or it cannot be read, or the listener cannot start or
// fails; 2 on a usage error.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("inanod", flag.ContinueOnError)
	fs.SetOutput(stderr)
	atlasPath := fs.String("atlas", "", "atlas file produced by inano-build")
	atlasFlat := fs.String("atlas-flat", "", "compiled flat atlas (inano-build -flat): mmap'd read-only, so startup cost is O(1) in atlas size and N replicas share the page cache (alternative to -atlas)")
	fetchManifest := fs.String("fetch-manifest", "", "fetch the initial atlas from the swarm via this manifest file (alternative to -atlas)")
	listen := fs.String("listen", "127.0.0.1:7353", "HTTP listen address (port 0 picks one)")
	deadline := fs.Duration("deadline", 0, "default per-request deadline (0 = none)")
	maxDeadline := fs.Duration("max-deadline", 0, "cap on client-requested deadlines (0 = uncapped)")
	window := fs.Int("window", 0, "batch stream window in pairs (0 = default)")
	watchDelta := fs.String("watch-delta", "", "delta file to poll and hot-apply when it changes")
	watchInterval := fs.Duration("watch-interval", 5*time.Second, "delta file poll interval")
	deltaManifest := fs.String("delta-manifest", "", "swarm manifest file to poll for daily deltas")
	manifestInterval := fs.Duration("manifest-interval", 30*time.Second, "delta manifest poll interval")
	shutdownGrace := fs.Duration("shutdown-grace", 10*time.Second, "how long to drain in-flight requests on shutdown")
	feedbackRate := fs.Float64("feedback-rate", 0, "per-source /v1/feedback observations per second (0 = default 64, negative = unlimited)")
	feedbackBurst := fs.Int("feedback-burst", 0, "per-source /v1/feedback burst (0 = default 256)")
	probeSim := fs.String("probe-sim", "", "enable the corrective prober against a synthetic world, as scale:seed (e.g. tiny:42; must match the atlas build)")
	correctInterval := fs.Duration("correct-interval", time.Minute, "corrective round interval")
	correctBudget := fs.Int("correct-budget", 8, "corrective traceroutes per round")
	correctMinError := fs.Float64("correct-min-error", 0.10, "EWMA error below which a destination is never probed")
	aggregate := fs.Bool("aggregate", false, "enable POST /v1/observations: aggregate clients' corrective observations for the next build")
	obsSnapshot := fs.String("obs-snapshot", "", "write the observation aggregate to this file (with -aggregate; inano-build -observations folds it into the next delta)")
	obsSnapshotInterval := fs.Duration("obs-snapshot-interval", time.Minute, "observation snapshot write interval")
	obsRate := fs.Float64("obs-rate", 0, "per-source /v1/observations observations per second (0 = default 8, negative = unlimited)")
	obsBurst := fs.Int("obs-burst", 0, "per-source /v1/observations burst (0 = default 64)")
	uploadURL := fs.String("upload-observations", "", "opt in to sharing this daemon's corrective observations: a build server's /v1/observations URL")
	uploadInterval := fs.Duration("upload-interval", time.Minute, "observation upload flush interval")
	peerID := fs.String("peer-id", "", "cluster peer identity, echoed in /healthz and the X-Inano-Peer response header")
	drain := fs.Bool("drain", false, "on SIGTERM, drain instead of hard shutdown: /healthz turns 503 so a router pulls this replica from the ring, in-flight requests finish, new serving requests are refused, and the process exits 0 once idle")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, format+"\n", args...)
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "inanod:", err)
		return 1
	}

	client, err := loadClient(*atlasPath, *atlasFlat, *fetchManifest)
	if err != nil {
		return fatal(err)
	}
	st := client.Snapshot().AtlasStats()
	logf("inanod: atlas day %d ready: %d clusters, %d links, %d prefixes",
		st.Day, st.Clusters, st.Links, st.Prefixes)

	var prober feedback.Prober
	if *probeSim != "" {
		if prober, err = simProber(*probeSim, func() int { return client.Snapshot().Day() }); err != nil {
			return fatal(err)
		}
	}
	var agg *feedback.Aggregator
	if *aggregate {
		agg = feedback.NewAggregator()
	} else if *obsSnapshot != "" {
		return fatal(errors.New("-obs-snapshot requires -aggregate"))
	}
	s := server.New(server.Config{
		Client:           client,
		DefaultDeadline:  *deadline,
		MaxDeadline:      *maxDeadline,
		StreamWindow:     *window,
		FeedbackRate:     *feedbackRate,
		FeedbackBurst:    *feedbackBurst,
		Aggregator:       agg,
		ObservationRate:  *obsRate,
		ObservationBurst: *obsBurst,
		PeerID:           *peerID,
		Logf:             logf,
	})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fatal(err)
	}
	// Parsed by the smoke test and ops tooling: keep this line stable.
	fmt.Fprintf(stdout, "inanod: listening on http://%s\n", ln.Addr())

	ctx, stopServing := context.WithCancel(ctx) // the loops below end with run
	defer stopServing()

	// watch runs f beside the server until ctx ends; shutdown waits for it.
	var watchers sync.WaitGroup
	watch := func(f func()) {
		watchers.Add(1)
		go func() { defer watchers.Done(); f() }()
	}
	if *watchDelta != "" {
		watch(func() { s.WatchDeltaFile(ctx, *watchDelta, *watchInterval) })
	}
	if *deltaManifest != "" {
		watch(func() { s.WatchManifest(ctx, *deltaManifest, *manifestInterval) })
	}
	// Upstream sharing (opt-in): the corrector's successful traceroutes
	// queue into an uploader that periodically flushes to the build server.
	var uploader *inano.Uploader
	if *uploadURL != "" {
		uploader = inano.NewUploader(*uploadURL)
		watch(func() {
			t := time.NewTicker(*uploadInterval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					// Final flush so a draining daemon ships what it has.
					flushCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					if n, err := uploader.Flush(flushCtx); err != nil {
						logf("inanod: final observation flush: %v", err)
					} else if n > 0 {
						logf("inanod: shipped %d observations upstream at shutdown", n)
					}
					cancel()
					return
				case <-t.C:
					if n, err := uploader.Flush(ctx); err != nil {
						logf("inanod: observation upload: %v", err)
					} else if n > 0 {
						logf("inanod: shipped %d observations upstream", n)
					}
				}
			}
		})
	}
	if prober != nil {
		cfg := feedback.Config{
			Budget:   *correctBudget,
			Interval: *correctInterval,
			MinError: *correctMinError,
		}
		if uploader != nil {
			cfg.Observe = uploader.Observe
		}
		watch(func() { s.RunCorrector(ctx, prober, cfg) })
	}
	if agg != nil && *obsSnapshot != "" {
		watch(func() { s.RunObservationSnapshots(ctx, *obsSnapshot, *obsSnapshotInterval) })
	}

	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fatal(err)
	case <-ctx.Done():
	}
	if *drain {
		// Cluster rotation: flip /healthz to 503 "draining" so the router's
		// next health pass pulls this replica from the ring, keep serving
		// what is already in flight, refuse new serving requests, and only
		// then stop the listener. The grace period bounds the wait.
		s.StartDraining()
		deadline := time.Now().Add(*shutdownGrace)
		for s.InFlight() > 0 && time.Now().Before(deadline) {
			time.Sleep(50 * time.Millisecond)
		}
		if n := s.InFlight(); n > 0 {
			logf("inanod: drain grace %v expired with %d requests in flight", *shutdownGrace, n)
		} else {
			logf("inanod: drained: no requests in flight")
		}
	} else {
		logf("inanod: signal received; draining for up to %v", *shutdownGrace)
	}
	shCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		logf("inanod: shutdown: %v", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logf("inanod: serve: %v", err)
	}
	watchers.Wait()
	fmt.Fprintln(stdout, "inanod: shutdown complete")
	return 0
}

// loadClient builds the serving client from a local atlas file, from a flat
// atlas mapped read-only (for the daemon's life: process exit unmaps it),
// or, when fetchManifest is set, by fetching the atlas from the swarm (§5's
// startup path).
func loadClient(atlasPath, atlasFlat, fetchManifest string) (*inano.Client, error) {
	switch {
	case atlasFlat != "" && (atlasPath != "" || fetchManifest != ""):
		return nil, errors.New("-atlas-flat cannot be combined with -atlas or -fetch-manifest")
	case atlasPath != "" && fetchManifest != "":
		return nil, errors.New("use either -atlas or -fetch-manifest, not both")
	case atlasFlat != "":
		ff, err := atlas.OpenFlat(atlasFlat, true)
		if err != nil {
			return nil, err
		}
		return inano.FromFlat(ff.Flat), nil
	case atlasPath != "":
		f, err := os.Open(atlasPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return inano.Load(f)
	case fetchManifest != "":
		addr, m, err := swarm.ReadManifestFile(fetchManifest)
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		return inano.FetchAtlas(ctx, addr, m)
	default:
		return nil, errors.New("one of -atlas or -fetch-manifest is required")
	}
}

// simProber rebuilds the synthetic world named by spec ("scale:seed") and
// returns a prober measuring it on the serving atlas's *current* day —
// looked up per probe, so a hot delta reload that advances the serving
// day moves the probes to the new day's ground truth with it. The spec
// must match the inano-build invocation that produced the atlas, or the
// probes will observe a different Internet.
func simProber(spec string, day func() int) (feedback.Prober, error) {
	scaleName, seedStr, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("bad -probe-sim %q: want scale:seed", spec)
	}
	var scale sim.Scale
	switch scaleName {
	case "tiny":
		scale = sim.Tiny
	case "medium":
		scale = sim.Medium
	case "eval":
		scale = sim.Eval
	default:
		return nil, fmt.Errorf("bad -probe-sim scale %q", scaleName)
	}
	seed, err := strconv.ParseInt(seedStr, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad -probe-sim seed %q: %v", seedStr, err)
	}
	w := sim.NewWorld(scale, seed)
	return feedback.ProberFunc(func(ctx context.Context, src, dst inano.Prefix) (feedback.Traceroute, error) {
		m := trace.NewMeter(w.Sim.Day(day()))
		return feedback.SimProber{Meter: m}.Probe(ctx, src, dst)
	}), nil
}
