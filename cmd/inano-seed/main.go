// Command inano-seed serves an atlas file into a peer-to-peer swarm: it
// starts a tracker (unless one is given), seeds the file, and writes the
// manifest other clients need to fetch it — the dissemination side of §5.
//
// Usage:
//
//	inano-seed -atlas atlas.bin -manifest atlas.manifest
//	inano-fetchers then use swarm.Fetch / inano.FetchAtlas with the manifest.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"inano/internal/swarm"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it seeds until ctx ends and then returns 0; 1 when
// the atlas cannot be read or the tracker, the manifest or the seed fails;
// 2 on a usage error.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("inano-seed", flag.ContinueOnError)
	fs.SetOutput(stderr)
	atlasPath := fs.String("atlas", "atlas.bin", "atlas file to seed")
	manifestPath := fs.String("manifest", "atlas.manifest", "manifest output file")
	trackerAddr := fs.String("tracker", "", "existing tracker address (empty = start one)")
	listen := fs.String("listen", "127.0.0.1:0", "tracker listen address when starting one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "inano-seed:", err)
		return 1
	}

	data, err := os.ReadFile(*atlasPath)
	if err != nil {
		return fatal(err)
	}
	m := swarm.NewManifest(*atlasPath, data, swarm.ChunkSize)

	addr := *trackerAddr
	if addr == "" {
		tr, err := swarm.StartTracker(*listen)
		if err != nil {
			return fatal(err)
		}
		defer tr.Close()
		addr = tr.Addr()
		fmt.Fprintf(stdout, "tracker listening on %s\n", addr)
	}

	if err := swarm.WriteManifestFile(*manifestPath, addr, m); err != nil {
		return fatal(err)
	}

	seed, err := swarm.StartSeed(addr, m, data)
	if err != nil {
		return fatal(err)
	}
	defer seed.Close()
	fmt.Fprintf(stdout, "seeding %s (%d bytes, %d chunks) as %s; manifest written to %s\n",
		*atlasPath, len(data), m.NumChunks(), seed.Addr(), *manifestPath)
	fmt.Fprintln(stdout, "press ctrl-c to stop")
	<-ctx.Done()
	return 0
}
