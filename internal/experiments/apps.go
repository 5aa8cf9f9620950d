package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	inano "inano"
	"inano/internal/netsim"
	"inano/internal/tcpmodel"
	"inano/internal/vivaldi"
)

// Fig9Strategy is one replica-selection strategy's download times.
type Fig9Strategy struct {
	Name  string
	Times []float64 // per client, ms (sorted)
}

// Fig9Result reproduces Fig. 9: CDN replica selection with 5 random
// replicas per client, for a small (9a) and a large (9b) file.
type Fig9Result struct {
	SizeBytes  int
	Clients    int
	Strategies []Fig9Strategy
}

// Fig9CDN emulates the client-based CDN experiment (§7.1). Download times
// come from the PFTK/slow-start transfer model evaluated on ground-truth
// RTT and loss of the chosen replica path (the stand-in for real transfers
// from Akamai hosts).
func Fig9CDN(l *Lab, sizeBytes, numClients, replicasPerClient int) Fig9Result {
	dd := l.Day(0)
	client := inano.FromAtlas(dd.Atlas)
	params := tcpmodel.DefaultParams()
	rng := rand.New(rand.NewSource(l.Cfg.Seed * 7919))

	// Replica pool: well-connected prefixes (the Akamai stand-ins): use
	// the vantage-point population beyond the validation sources.
	pool := l.Targets
	clients := l.VPs
	if numClients > len(clients) {
		numClients = len(clients)
	}

	// Vivaldi and geo selectors as comparators.
	hostSet := map[netsim.Prefix]bool{}
	for _, c := range clients[:numClients] {
		hostSet[c] = true
	}
	// Pre-draw replica sets so every strategy sees the same choices.
	replicaSets := make([][]netsim.Prefix, numClients)
	for i := 0; i < numClients; i++ {
		set := make([]netsim.Prefix, 0, replicasPerClient)
		seen := map[netsim.Prefix]bool{clients[i]: true}
		for len(set) < replicasPerClient {
			r := pool[rng.Intn(len(pool))]
			if !seen[r] {
				seen[r] = true
				set = append(set, r)
				hostSet[r] = true
			}
		}
		replicaSets[i] = set
	}
	hosts := make([]netsim.Prefix, 0, len(hostSet))
	for p := range hostSet {
		hosts = append(hosts, p)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	space := vivaldi.Train(hosts, func(a, b netsim.Prefix) (float64, bool) {
		return dd.Day.RTT(a, b)
	}, vivaldi.DefaultParams(l.Cfg.Seed))
	geo := vivaldi.NewGeoSelector(l.W.Top, 0)

	// downloadTime evaluates the true transfer time from a replica.
	downloadTime := func(cl, replica netsim.Prefix) (float64, bool) {
		rtt, ok1 := dd.Day.RTT(cl, replica)
		loss, ok2 := dd.Day.RTLoss(cl, replica)
		if !ok1 || !ok2 {
			return 0, false
		}
		return tcpmodel.TransferTimeMS(sizeBytes, rtt, loss, params), true
	}

	strategies := []struct {
		name string
		pick func(cl netsim.Prefix, reps []netsim.Prefix) (netsim.Prefix, bool)
	}{
		{"optimal", func(cl netsim.Prefix, reps []netsim.Prefix) (netsim.Prefix, bool) {
			best, bestT, ok := netsim.Prefix(0), 0.0, false
			for _, r := range reps {
				if t, k := downloadTime(cl, r); k && (!ok || t < bestT) {
					best, bestT, ok = r, t, true
				}
			}
			return best, ok
		}},
		{"measured latency", func(cl netsim.Prefix, reps []netsim.Prefix) (netsim.Prefix, bool) {
			best, bestT, ok := netsim.Prefix(0), 0.0, false
			for _, r := range reps {
				if t, k := dd.Day.RTT(cl, r); k && (!ok || t < bestT) {
					best, bestT, ok = r, t, true
				}
			}
			return best, ok
		}},
		{"iNano", func(cl netsim.Prefix, reps []netsim.Prefix) (netsim.Prefix, bool) {
			ranked, _ := client.Snapshot().Rank(context.Background(), cl, reps, sizeBytes) // the background context never ends
			if len(ranked) == 0 || !ranked[0].Found {
				return 0, false
			}
			return ranked[0].Dst, true
		}},
		{"Vivaldi", func(cl netsim.Prefix, reps []netsim.Prefix) (netsim.Prefix, bool) {
			best, bestT, ok := netsim.Prefix(0), 0.0, false
			for _, r := range reps {
				if t, k := space.Estimate(cl, r); k && (!ok || t < bestT) {
					best, bestT, ok = r, t, true
				}
			}
			return best, ok
		}},
		{"OASIS-like (geo)", func(cl netsim.Prefix, reps []netsim.Prefix) (netsim.Prefix, bool) {
			return geo.Best(cl, reps)
		}},
		{"random", func(cl netsim.Prefix, reps []netsim.Prefix) (netsim.Prefix, bool) {
			if len(reps) == 0 {
				return 0, false
			}
			return reps[int(cl)%len(reps)], true
		}},
	}
	res := Fig9Result{SizeBytes: sizeBytes, Clients: numClients}
	for _, s := range strategies {
		st := Fig9Strategy{Name: s.name}
		for i := 0; i < numClients; i++ {
			r, ok := s.pick(clients[i], replicaSets[i])
			if !ok {
				continue
			}
			if t, k := downloadTime(clients[i], r); k {
				st.Times = append(st.Times, t)
			}
		}
		sort.Float64s(st.Times)
		res.Strategies = append(res.Strategies, st)
	}
	return res
}

// Render formats Fig. 9 as per-strategy quantiles.
func (r Fig9Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 9 (%dKB file): download time per strategy over %d clients, 5 random replicas each\n",
		r.SizeBytes/1000, r.Clients)
	fmt.Fprintf(&b, "%-18s %10s %10s %10s\n", "strategy", "p25(ms)", "median(ms)", "p75(ms)")
	var optMedian float64
	for _, s := range r.Strategies {
		if s.Name == "optimal" {
			optMedian = quantile(s.Times, 0.5)
		}
	}
	for _, s := range r.Strategies {
		med := quantile(s.Times, 0.5)
		ratio := ""
		if optMedian > 0 {
			ratio = fmt.Sprintf("  (%.2fx optimal)", med/optMedian)
		}
		fmt.Fprintf(&b, "%-18s %10.0f %10.0f %10.0f%s\n",
			s.Name, quantile(s.Times, 0.25), med, quantile(s.Times, 0.75), ratio)
	}
	fmt.Fprintf(&b, "(paper: iNano near-optimal median for both sizes, ahead of Vivaldi/OASIS)\n")
	return b.String()
}

// Fig10Strategy is one relay-selection strategy's observed call loss rates.
type Fig10Strategy struct {
	Name   string
	Losses []float64 // per call, sorted
	MOS    []float64
}

// Fig10Result reproduces Fig. 10: VoIP relay selection.
type Fig10Result struct {
	Calls      int
	Strategies []Fig10Strategy
}

// Fig10VoIP emulates §7.2: random (src,dst) calls relayed through a peer;
// strategies pick the relay, and the observed quality is the ground-truth
// loss through it.
func Fig10VoIP(l *Lab, numCalls int) Fig10Result {
	dd := l.Day(0)
	client := inano.FromAtlas(dd.Atlas)
	rng := rand.New(rand.NewSource(l.Cfg.Seed * 104729))
	hosts := l.VPs

	trueLegs := func(src, relay, dst netsim.Prefix) (loss, oneway float64, ok bool) {
		l1, ok1 := dd.Day.RTLoss(src, relay)
		l2, ok2 := dd.Day.RTLoss(relay, dst)
		r1, ok3 := dd.Day.RTT(src, relay)
		r2, ok4 := dd.Day.RTT(relay, dst)
		if !ok1 || !ok2 || !ok3 || !ok4 {
			return 0, 0, false
		}
		return 1 - (1-l1)*(1-l2), (r1 + r2) / 2, true
	}

	type call struct{ src, dst netsim.Prefix }
	calls := make([]call, 0, numCalls)
	for len(calls) < numCalls {
		s := hosts[rng.Intn(len(hosts))]
		d := hosts[rng.Intn(len(hosts))]
		if s != d {
			calls = append(calls, call{s, d})
		}
	}
	relaysFor := func(c call) []netsim.Prefix {
		out := make([]netsim.Prefix, 0, len(hosts)-2)
		for _, h := range hosts {
			if h != c.src && h != c.dst {
				out = append(out, h)
			}
		}
		return out
	}
	closestTo := func(anchor netsim.Prefix, relays []netsim.Prefix) (netsim.Prefix, bool) {
		best, bestT, ok := netsim.Prefix(0), 0.0, false
		for _, r := range relays {
			if t, k := dd.Day.RTT(anchor, r); k && (!ok || t < bestT) {
				best, bestT, ok = r, t, true
			}
		}
		return best, ok
	}
	strategies := []struct {
		name string
		pick func(c call, relays []netsim.Prefix) (netsim.Prefix, bool)
	}{
		{"iNano", func(c call, relays []netsim.Prefix) (netsim.Prefix, bool) {
			choice, ok, _ := client.Snapshot().BestRelay(context.Background(), c.src, c.dst, relays, 10)
			return choice.Relay, ok
		}},
		{"closest to source", func(c call, relays []netsim.Prefix) (netsim.Prefix, bool) {
			return closestTo(c.src, relays)
		}},
		{"closest to dest", func(c call, relays []netsim.Prefix) (netsim.Prefix, bool) {
			return closestTo(c.dst, relays)
		}},
		{"random", func(c call, relays []netsim.Prefix) (netsim.Prefix, bool) {
			if len(relays) == 0 {
				return 0, false
			}
			return relays[(int(c.src)+int(c.dst))%len(relays)], true
		}},
	}
	res := Fig10Result{Calls: len(calls)}
	for _, s := range strategies {
		st := Fig10Strategy{Name: s.name}
		for _, c := range calls {
			relay, ok := s.pick(c, relaysFor(c))
			if !ok {
				continue
			}
			loss, oneway, ok := trueLegs(c.src, relay, c.dst)
			if !ok {
				continue
			}
			st.Losses = append(st.Losses, loss)
			st.MOS = append(st.MOS, mosOf(oneway, loss))
		}
		sort.Float64s(st.Losses)
		res.Strategies = append(res.Strategies, st)
	}
	return res
}

// Render formats Fig. 10.
func (r Fig10Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 10: VoIP relay selection over %d calls (observed loss through chosen relay)\n", r.Calls)
	fmt.Fprintf(&b, "%-18s %10s %10s %12s %10s\n", "strategy", "median", "p90", "lossless", "meanMOS")
	for _, s := range r.Strategies {
		meanMOS := 0.0
		for _, m := range s.MOS {
			meanMOS += m
		}
		if len(s.MOS) > 0 {
			meanMOS /= float64(len(s.MOS))
		}
		fmt.Fprintf(&b, "%-18s %10.4f %10.4f %11.0f%% %10.2f\n",
			s.Name, quantile(s.Losses, 0.5), quantile(s.Losses, 0.9),
			cdfFrac(s.Losses, 0.0005)*100, meanMOS)
	}
	fmt.Fprintf(&b, "(paper: iNano relays see significantly less loss than all alternatives)\n")
	return b.String()
}
