// Example daemon: run the inanod serving stack in-process — build an
// atlas, serve it over HTTP, query it like a remote peer would, stream a
// batch, hot-apply a daily delta mid-flight, and observe it all in the
// metrics. This is the full serving loop of cmd/inanod, self-contained.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"

	inano "inano"
	"inano/internal/atlas"
	"inano/internal/server"
	"inano/sim"
)

func main() {
	// 1. Server side: two days of measurements — today's atlas plus
	// tomorrow's delta, as the build server would publish them.
	world := sim.NewWorld(sim.Tiny, 11)
	vps := world.VantagePoints(12)
	measure := func(day int) *sim.Campaign {
		return world.Measure(sim.CampaignOptions{Day: day, VPs: vps, Targets: world.EdgePrefixes()})
	}
	// Day 1 keeps day 0's cluster IDs (the build server's persistent
	// registry); without that the delta between them rewrites everything
	// and a client following it answers next to nothing.
	c0, c1 := measure(0), measure(1)
	cl0 := c0.Clusters(nil)
	a0, a1 := c0.BuildAtlasOver(cl0), c1.BuildAtlasOver(c1.Clusters(cl0))
	var delta bytes.Buffer
	if err := atlas.Diff(a0, a1).Encode(&delta); err != nil {
		log.Fatal(err)
	}

	// 2. The daemon: an inano.Client wrapped in the HTTP serving surface.
	client := inano.FromAtlas(a0)
	s := server.New(server.Config{Client: client})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, s.Handler())
	base := "http://" + ln.Addr().String()
	fmt.Println("daemon listening on", base)

	// 3. A peer asks for one path prediction.
	src, dst := vps[0], world.EdgePrefixes()[7]
	var single struct {
		Found bool    `json:"found"`
		RTTMS float64 `json:"rtt_ms"`
		Day   int     `json:"day"`
	}
	getJSON(fmt.Sprintf("%s/v1/query?src=%s&dst=%s", base, src.HostIP(), dst.HostIP()), &single)
	fmt.Printf("single query: found=%v rtt=%.1fms (day %d)\n", single.Found, single.RTTMS, single.Day)

	// 4. A streamed batch: NDJSON pairs in, NDJSON results out, windowed —
	// the same path scales to millions of pairs without buffering.
	var body bytes.Buffer
	targets := world.EdgePrefixes()
	n := 200
	for i := 0; i < n; i++ {
		fmt.Fprintf(&body, `{"src":%q,"dst":%q}`+"\n",
			vps[i%len(vps)].HostIP(), targets[i%len(targets)].HostIP())
	}
	resp, err := http.Post(base+"/v1/batch", "application/x-ndjson", &body)
	if err != nil {
		log.Fatal(err)
	}
	results, found := 0, 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		results++
		if strings.Contains(sc.Text(), `"found":true`) {
			found++
		}
	}
	resp.Body.Close()
	fmt.Printf("streamed batch: %d pairs answered, %d with predictions\n", results, found)

	// 5. Hot reload: merge tomorrow's delta into a new compiled atlas and
	// publish it atomically. No query waits; in-flight streams keep their
	// snapshot; new queries see day 1.
	if err := client.ApplyDelta(&delta); err != nil {
		log.Fatal(err)
	}
	if roll, ok := client.LastRoll(); ok {
		fmt.Printf("day roll:     %d links changed, %d tuples flipped, merged in %v\n",
			roll.LinksChanged(), roll.TuplesAdded+roll.TuplesRemoved, roll.Duration)
	}
	getJSON(fmt.Sprintf("%s/v1/query?src=%s&dst=%s", base, src.HostIP(), dst.HostIP()), &single)
	fmt.Printf("after delta:  found=%v rtt=%.1fms (day %d)\n", single.Found, single.RTTMS, single.Day)

	// 6. Observability: the serving metrics, Prometheus-style.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	raw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	fmt.Println("\nselected metrics:")
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "inanod_batch_pairs_streamed_total") ||
			strings.HasPrefix(line, "inanod_tree_cache_builds") ||
			strings.HasPrefix(line, "inanod_tree_cache_bytes") || // what the resident trees cost in memory
			strings.HasPrefix(line, "inanod_tree_cache_hit_ratio") ||
			strings.HasPrefix(line, "inanod_tree_cache_warm") || // _warmed, _warm_hits: the rebuild behind the roll
			strings.HasPrefix(line, "inanod_atlas_day") ||
			strings.HasPrefix(line, "inanod_reload_") {
			fmt.Println(" ", line)
		}
	}
}

func getJSON(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
