// Command inano-router fronts a set of inanod replicas with a thin HTTP
// routing tier: every query is consistent-hashed on its destination
// cluster — resolved through the same flat atlas the replicas serve — so
// each replica's prediction-tree cache stays hot for exactly its slice
// of the destination space. Answers are the replicas' answers, forwarded
// verbatim: a cluster behind the router is byte-identical to one node,
// just with N tree caches instead of one.
//
// The router proxies /v1/query, /v1/rank and /v1/relay, and answers a
// streamed /v1/batch a window at a time, each window's lines asked of
// their owners and written in request order. It health-checks replicas
// every -health-interval, drops dead or draining ones from the ring,
// retries their work — a window's unanswered pairs included — on the
// ring's next node, and re-shards when membership changes. Replicas sync atlases through
// their own delta/manifest watchers; a day roll needs nothing from the
// router.
//
// Usage:
//
//	inano-router -replicas http://127.0.0.1:7361,http://127.0.0.1:7362 \
//	             -atlas-flat atlas.flat
//
// The routing table is read once at startup. After an atlas day roll the
// table may place a few re-clustered destinations on a different replica
// than a freshly-started router would — that only moves cache locality,
// never correctness, since every replica can answer every query.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"inano/internal/atlas"
	"inano/internal/cluster"
)

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so a peer that opens connections and sends nothing
// cannot hold them (and their goroutines) forever. Bodies are not bounded
// here: /v1/batch streams for as long as its producer does.
const readHeaderTimeout = 10 * time.Second

func main() {
	listen := flag.String("listen", "127.0.0.1:7360", "HTTP listen address (port 0 picks one)")
	replicas := flag.String("replicas", "", "comma-separated inanod base URLs (required)")
	atlasFlat := flag.String("atlas-flat", "", "flat atlas (inano-build -flat) supplying the prefix→cluster routing table; must be the atlas the replicas serve (required)")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "replica /healthz poll interval")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per replica on the hash ring (0 = default)")
	window := flag.Int("window", 0, "batch stream window in pairs when the request carries no ?window= (0 = 1024)")
	shutdownGrace := flag.Duration("shutdown-grace", 10*time.Second, "how long to drain in-flight requests on shutdown")
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}

	if *replicas == "" {
		fatal(errors.New("-replicas is required"))
	}
	if *atlasFlat == "" {
		fatal(errors.New("-atlas-flat is required"))
	}
	var nodes []string
	for _, n := range strings.Split(*replicas, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodes = append(nodes, n)
		}
	}

	ff, err := atlas.OpenFlat(*atlasFlat, true)
	if err != nil {
		fatal(err)
	}
	// The mapping backs the routing table for the process lifetime.
	logf("inano-router: routing table from flat atlas day %d: %d clusters, %d prefixes",
		ff.Day, ff.NumClusters, len(ff.PrefixClKeys))

	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Nodes:          nodes,
		ClusterOf:      ff.ClusterOf,
		VNodes:         *vnodes,
		HealthInterval: *healthInterval,
		Window:         *window,
		Logf:           logf,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	// Parsed by the cluster smoke test and ops tooling: keep this line stable.
	fmt.Printf("inano-router: listening on http://%s\n", ln.Addr())
	logf("inano-router: fronting %d replicas: %s", len(nodes), strings.Join(nodes, " "))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go rt.Run(ctx)

	srv := &http.Server{Handler: rt.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fatal(err)
	case <-ctx.Done():
	}
	logf("inano-router: signal received; draining for up to %v", *shutdownGrace)
	shCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		logf("inano-router: shutdown: %v", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logf("inano-router: serve: %v", err)
	}
	fmt.Println("inano-router: shutdown complete")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "inano-router:", err)
	os.Exit(1)
}
