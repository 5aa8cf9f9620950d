package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	inano "inano"
	"inano/internal/netsim"
)

// Load-generator mode: drive a running inanod with the serving workloads
// the daemon is built for — concurrent single queries (the interactive
// shape) and streamed NDJSON batches (the bulk shape) — and report
// client-observed latency percentiles and throughput. The target prefixes
// come from the same atlas file the daemon serves, so every query is
// answerable.

type loadgenConfig struct {
	baseURL   string
	atlasPath string
	n         int // total queries (singles) or pairs (batch)
	conc      int // concurrent workers (singles) or concurrent streams (batch)
	batch     int // pairs per batch stream; 0 = single-query mode
	seed      int64
}

func runLoadgen(cfg loadgenConfig) error {
	prefixes, err := atlasPrefixes(cfg.atlasPath)
	if err != nil {
		return err
	}
	if len(prefixes) < 2 {
		return fmt.Errorf("atlas %s has %d prefixes; need at least 2", cfg.atlasPath, len(prefixes))
	}
	base := strings.TrimRight(cfg.baseURL, "/")
	if cfg.conc <= 0 {
		cfg.conc = 8
	}
	fmt.Printf("# inanod load generator — target %s, %d prefixes\n", base, len(prefixes))
	if cfg.batch > 0 {
		return loadBatches(cfg, base, prefixes)
	}
	return loadSingles(cfg, base, prefixes)
}

// atlasPrefixes lists the queryable prefixes of an atlas file in a
// deterministic order.
func atlasPrefixes(path string) ([]netsim.Prefix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := inano.Load(f)
	if err != nil {
		return nil, err
	}
	return slices.Collect(c.Snapshot().Prefixes()), nil
}

// loadSingles hammers /v1/query from cfg.conc workers and reports latency
// percentiles — the interactive serving shape.
func loadSingles(cfg loadgenConfig, base string, prefixes []netsim.Prefix) error {
	var (
		mu        sync.Mutex
		latencies []time.Duration
		found     int
		errs      int
	)
	var wg sync.WaitGroup
	perWorker := cfg.n / cfg.conc
	if perWorker == 0 {
		perWorker = 1
	}
	start := time.Now()
	for w := 0; w < cfg.conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)))
			client := &http.Client{Timeout: 30 * time.Second}
			local := make([]time.Duration, 0, perWorker)
			localFound, localErrs := 0, 0
			for i := 0; i < perWorker; i++ {
				src := prefixes[rng.Intn(len(prefixes))]
				dst := prefixes[rng.Intn(len(prefixes))]
				url := fmt.Sprintf("%s/v1/query?src=%s&dst=%s", base, src.HostIP(), dst.HostIP())
				t0 := time.Now()
				resp, err := client.Get(url)
				if err != nil {
					localErrs++
					continue
				}
				var res struct {
					Found bool `json:"found"`
				}
				switch {
				case resp.StatusCode != http.StatusOK:
					localErrs++
				case json.NewDecoder(resp.Body).Decode(&res) != nil:
					localErrs++
				default:
					if res.Found {
						localFound++
					}
					local = append(local, time.Since(t0))
				}
				resp.Body.Close()
			}
			mu.Lock()
			latencies = append(latencies, local...)
			found += localFound
			errs += localErrs
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	q := func(p float64) time.Duration {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return latencies[i]
	}
	total := len(latencies)
	fmt.Printf("singles: %d queries over %d workers in %v (%.0f qps)\n",
		total, cfg.conc, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds())
	fmt.Printf("  found %d (%.1f%%), errors %d\n", found, 100*float64(found)/float64(max(total, 1)), errs)
	fmt.Printf("  latency p50 %v  p90 %v  p99 %v  max %v\n",
		q(0.50).Round(time.Microsecond), q(0.90).Round(time.Microsecond),
		q(0.99).Round(time.Microsecond), q(1).Round(time.Microsecond))
	if errs > 0 {
		return fmt.Errorf("%d request errors", errs)
	}
	return nil
}

// loadBatches opens cfg.conc concurrent /v1/batch streams of cfg.batch
// pairs each (up to cfg.n pairs total), writing the request body while
// reading results — the bulk serving shape. Reports pairs/s and
// time-to-first-result per stream.
func loadBatches(cfg loadgenConfig, base string, prefixes []netsim.Prefix) error {
	// Streams beyond cfg.conc run in waves, bounded by the semaphore below.
	streams := cfg.n / cfg.batch
	if streams < 1 {
		streams = 1
	}
	type streamResult struct {
		pairs    int
		firstRes time.Duration
		err      error
	}
	results := make([]streamResult, streams)
	sem := make(chan struct{}, cfg.conc)
	var wg sync.WaitGroup
	start := time.Now()
	for sID := 0; sID < streams; sID++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(sID int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[sID] = runOneBatchStream(cfg, base, prefixes, sID)
		}(sID)
	}
	wg.Wait()
	elapsed := time.Since(start)
	totalPairs, errs := 0, 0
	var worstFirst time.Duration
	for _, r := range results {
		totalPairs += r.pairs
		if r.err != nil {
			errs++
			fmt.Printf("  stream error: %v\n", r.err)
		}
		if r.firstRes > worstFirst {
			worstFirst = r.firstRes
		}
	}
	fmt.Printf("batch: %d pairs over %d streams (%d pairs each, %d concurrent) in %v\n",
		totalPairs, streams, cfg.batch, cfg.conc, elapsed.Round(time.Millisecond))
	fmt.Printf("  throughput %.0f pairs/s, worst time-to-first-result %v, stream errors %d\n",
		float64(totalPairs)/elapsed.Seconds(), worstFirst.Round(time.Millisecond), errs)
	if errs > 0 {
		return fmt.Errorf("%d of %d streams failed", errs, streams)
	}
	return nil
}

func runOneBatchStream(cfg loadgenConfig, base string, prefixes []netsim.Prefix, sID int) (res struct {
	pairs    int
	firstRes time.Duration
	err      error
}) {
	rng := rand.New(rand.NewSource(cfg.seed + 1000*int64(sID)))
	pr, pw := io.Pipe()
	go func() {
		bw := bufio.NewWriter(pw)
		for i := 0; i < cfg.batch; i++ {
			src := prefixes[rng.Intn(len(prefixes))]
			dst := prefixes[rng.Intn(len(prefixes))]
			if _, err := fmt.Fprintf(bw, `{"src":%q,"dst":%q}`+"\n", src.HostIP(), dst.HostIP()); err != nil {
				pw.CloseWithError(err)
				return
			}
		}
		bw.Flush()
		pw.Close()
	}()
	req, err := http.NewRequest("POST", base+"/v1/batch", pr)
	if err != nil {
		res.err = err
		return res
	}
	t0 := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		if res.pairs == 0 {
			res.firstRes = time.Since(t0)
		}
		var line struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			res.err = fmt.Errorf("bad response line: %v", err)
			return res
		}
		if line.Error != "" {
			res.err = fmt.Errorf("stream aborted after %d pairs: %s", res.pairs, line.Error)
			return res
		}
		res.pairs++
	}
	res.err = sc.Err()
	return res
}
