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
	"flag"
	"fmt"
	"os"
	"os/signal"

	"inano/internal/swarm"
)

func main() {
	atlasPath := flag.String("atlas", "atlas.bin", "atlas file to seed")
	manifestPath := flag.String("manifest", "atlas.manifest", "manifest output file")
	trackerAddr := flag.String("tracker", "", "existing tracker address (empty = start one)")
	listen := flag.String("listen", "127.0.0.1:0", "tracker listen address when starting one")
	flag.Parse()

	data, err := os.ReadFile(*atlasPath)
	if err != nil {
		fatal(err)
	}
	m := swarm.NewManifest(*atlasPath, data, swarm.ChunkSize)

	addr := *trackerAddr
	if addr == "" {
		tr, err := swarm.StartTracker(*listen)
		if err != nil {
			fatal(err)
		}
		defer tr.Close()
		addr = tr.Addr()
		fmt.Printf("tracker listening on %s\n", addr)
	}

	if err := swarm.WriteManifestFile(*manifestPath, addr, m); err != nil {
		fatal(err)
	}

	seed, err := swarm.StartSeed(addr, m, data)
	if err != nil {
		fatal(err)
	}
	defer seed.Close()
	fmt.Printf("seeding %s (%d bytes, %d chunks) as %s; manifest written to %s\n",
		*atlasPath, len(data), m.NumChunks(), seed.Addr(), *manifestPath)
	fmt.Println("press ctrl-c to stop")

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "inano-seed:", err)
	os.Exit(1)
}
