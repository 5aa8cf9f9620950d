// Command inano-query loads an atlas and answers path queries locally —
// the client side of §5 as a CLI.
//
// With one destination it prints the full bidirectional prediction; with
// several it issues one Snapshot.QueryReqs batch and prints a ranking
// table, the CDN replica-selection shape of §7.1.
//
// Usage:
//
//	inano-query -atlas atlas.bin 10.1.2.3 10.9.8.7
//	inano-query -atlas atlas.bin 10.1.2.3 10.9.8.7 10.4.4.4 10.7.0.9
//	inano-query -atlas atlas.bin -list        # show known prefixes
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	inano "inano"
	"inano/internal/netsim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: 0 on success, 1 on a failed load or query or when
// nothing could be predicted, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("inano-query", flag.ContinueOnError)
	fs.SetOutput(stderr)
	atlasPath := fs.String("atlas", "atlas.bin", "atlas file produced by inano-build")
	list := fs.Bool("list", false, "list prefixes with attachment clusters and exit")
	timeout := fs.Duration("timeout", 0, "bound query time (0 = no limit); batches abort with an error when exceeded")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "inano-query:", err)
		return 1
	}

	f, err := os.Open(*atlasPath)
	if err != nil {
		return fatal(err)
	}
	client, err := inano.Load(f)
	f.Close()
	if err != nil {
		return fatal(err)
	}
	snap := client.Snapshot()
	fmt.Fprintf(stdout, "atlas day %d loaded\n", snap.Day())

	if *list {
		for p := range snap.Prefixes() {
			cl, _ := snap.AttachmentCluster(p)
			fmt.Fprintf(stdout, "%s -> cluster %d (AS%d)\n", p, cl, snap.OriginAS(p))
		}
		return 0
	}

	if fs.NArg() < 2 {
		fmt.Fprintln(stderr, "usage: inano-query -atlas atlas.bin <src-ip> <dst-ip> [<dst-ip>...]")
		return 2
	}
	src, err := netsim.ParseIPv4(fs.Arg(0))
	if err != nil {
		return fatal(err)
	}
	dsts := make([]inano.IP, fs.NArg()-1)
	reqs := make([]inano.PairReq, len(dsts))
	for i := range dsts {
		if dsts[i], err = netsim.ParseIPv4(fs.Arg(i + 1)); err != nil {
			return fatal(err)
		}
		reqs[i] = inano.PairOf(src, dsts[i])
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	infos, _, err := snap.QueryReqs(ctx, reqs)
	if err != nil {
		return fatal(fmt.Errorf("query aborted: %w", err))
	}

	if len(dsts) == 1 {
		return printSingle(stdout, infos[0])
	}
	return printRanking(stdout, dsts, infos)
}

// printSingle shows the full bidirectional answer for one destination;
// the exit code is 1 when there is none.
func printSingle(w io.Writer, info inano.PathInfo) int {
	if !info.Found {
		fmt.Fprintln(w, "no prediction (prefix unknown or no policy-compliant path)")
		return 1
	}
	fmt.Fprintf(w, "RTT estimate:   %.1f ms\n", info.RTTMS)
	fmt.Fprintf(w, "loss estimate:  %.2f%%\n", info.LossRate*100)
	fmt.Fprintf(w, "forward AS path: %v  (%.1f ms one-way over %d clusters)\n",
		info.Fwd.ASPath, info.Fwd.LatencyMS, len(info.Fwd.Clusters))
	fmt.Fprintf(w, "reverse AS path: %v  (%.1f ms one-way over %d clusters)\n",
		info.Rev.ASPath, info.Rev.LatencyMS, len(info.Rev.Clusters))
	return 0
}

// printRanking shows a batch of destinations ordered by predicted RTT; the
// exit code is 1 when none has a prediction.
func printRanking(w io.Writer, dsts []inano.IP, infos []inano.PathInfo) int {
	type row struct {
		dst  inano.IP
		info inano.PathInfo
	}
	rows := make([]row, len(dsts))
	for i := range dsts {
		rows[i] = row{dsts[i], infos[i]}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].info.Found != rows[j].info.Found {
			return rows[i].info.Found
		}
		return rows[i].info.RTTMS < rows[j].info.RTTMS
	})
	fmt.Fprintf(w, "%-18s %10s %8s %s\n", "destination", "rtt(ms)", "loss", "forward AS path")
	code := 1
	for _, r := range rows {
		if !r.info.Found {
			fmt.Fprintf(w, "%-18v %10s %8s no prediction\n", r.dst, "-", "-")
			continue
		}
		code = 0
		fmt.Fprintf(w, "%-18v %10.1f %7.2f%% %v\n", r.dst, r.info.RTTMS, r.info.LossRate*100, r.info.Fwd.ASPath)
	}
	return code
}
