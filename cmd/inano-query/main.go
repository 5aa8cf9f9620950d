// Command inano-query loads an atlas and answers path queries locally —
// the client side of §5 as a CLI.
//
// With one destination it prints the full bidirectional prediction; with
// several it issues one QueryBatch and prints a ranking table, the CDN
// replica-selection shape of §7.1.
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
	"os"
	"sort"
	"strconv"
	"strings"

	inano "inano"
)

func main() {
	atlasPath := flag.String("atlas", "atlas.bin", "atlas file produced by inano-build")
	list := flag.Bool("list", false, "list prefixes with attachment clusters and exit")
	timeout := flag.Duration("timeout", 0, "bound query time (0 = no limit); batches abort with an error when exceeded")
	flag.Parse()

	f, err := os.Open(*atlasPath)
	if err != nil {
		fatal(err)
	}
	client, err := inano.Load(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("atlas day %d loaded\n", client.Day())

	if *list {
		snap := client.Snapshot()
		for p := range snap.Prefixes() {
			cl, _ := snap.AttachmentCluster(p)
			fmt.Printf("%s -> cluster %d (AS%d)\n", p, cl, snap.OriginAS(p))
		}
		return
	}

	if flag.NArg() < 2 {
		fmt.Fprintln(os.Stderr, "usage: inano-query -atlas atlas.bin <src-ip> <dst-ip> [<dst-ip>...]")
		os.Exit(2)
	}
	src, err := parseIP(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	dsts := make([]inano.IP, flag.NArg()-1)
	for i := 1; i < flag.NArg(); i++ {
		if dsts[i-1], err = parseIP(flag.Arg(i)); err != nil {
			fatal(err)
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	infos, err := client.QueryBatchContext(ctx, src, dsts)
	if err != nil {
		fatal(fmt.Errorf("query aborted: %w", err))
	}

	if len(dsts) == 1 {
		printSingle(infos[0])
		return
	}
	printRanking(dsts, infos)
}

// printSingle shows the full bidirectional answer for one destination.
func printSingle(info inano.PathInfo) {
	if !info.Found {
		fmt.Println("no prediction (prefix unknown or no policy-compliant path)")
		os.Exit(1)
	}
	fmt.Printf("RTT estimate:   %.1f ms\n", info.RTTMS)
	fmt.Printf("loss estimate:  %.2f%%\n", info.LossRate*100)
	fmt.Printf("forward AS path: %v  (%.1f ms one-way over %d clusters)\n",
		info.Fwd.ASPath, info.Fwd.LatencyMS, len(info.Fwd.Clusters))
	fmt.Printf("reverse AS path: %v  (%.1f ms one-way over %d clusters)\n",
		info.Rev.ASPath, info.Rev.LatencyMS, len(info.Rev.Clusters))
}

// printRanking shows a batch of destinations ordered by predicted RTT.
func printRanking(dsts []inano.IP, infos []inano.PathInfo) {
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
	fmt.Printf("%-18s %10s %8s %s\n", "destination", "rtt(ms)", "loss", "forward AS path")
	anyFound := false
	for _, r := range rows {
		if !r.info.Found {
			fmt.Printf("%-18v %10s %8s no prediction\n", r.dst, "-", "-")
			continue
		}
		anyFound = true
		fmt.Printf("%-18v %10.1f %7.2f%% %v\n", r.dst, r.info.RTTMS, r.info.LossRate*100, r.info.Fwd.ASPath)
	}
	if !anyFound {
		os.Exit(1)
	}
}

func parseIP(s string) (inano.IP, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("bad IPv4 address %q", s)
	}
	var ip uint32
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return 0, fmt.Errorf("bad IPv4 address %q", s)
		}
		ip = ip<<8 | uint32(v)
	}
	return inano.IP(ip), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "inano-query:", err)
	os.Exit(1)
}
