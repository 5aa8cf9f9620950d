package feedback

import (
	"context"
	"time"

	"inano/internal/netsim"
	"inano/internal/trace"
)

// Prober issues one corrective traceroute. Implementations range from the
// simulated measurement harness (SimProber, used by tests and the
// evaluation) to a real traceroute binary on a deployed host.
type Prober interface {
	Probe(ctx context.Context, src, dst netsim.Prefix) (Traceroute, error)
}

// ProberFunc adapts a function to the Prober interface.
type ProberFunc func(ctx context.Context, src, dst netsim.Prefix) (Traceroute, error)

// Probe implements Prober.
func (f ProberFunc) Probe(ctx context.Context, src, dst netsim.Prefix) (Traceroute, error) {
	return f(ctx, src, dst)
}

// SimProber backs the prober with the synthetic world's measurement
// harness — corrective traceroutes observe the simulated ground truth the
// same way the atlas-building campaign did.
type SimProber struct {
	Meter *trace.Meter
}

// Probe implements Prober against the simulated meter.
func (p SimProber) Probe(_ context.Context, src, dst netsim.Prefix) (Traceroute, error) {
	mt := p.Meter.Traceroute(src, dst)
	tr := Traceroute{Src: src, Dst: dst, Hops: make([]Hop, len(mt.Hops))}
	for i, h := range mt.Hops {
		tr.Hops[i] = Hop{IP: h.IP, RTTMS: h.RTTMS}
	}
	return tr, nil
}

// Config tunes the corrective scheduler. The zero value uses defaults.
type Config struct {
	// Budget is the maximum corrective traceroutes per round (default 8;
	// the paper's clients issue a comparably small daily budget).
	Budget int
	// Interval spaces rounds of the background loop (default 1m).
	Interval time.Duration
	// MinError is the EWMA error below which a destination is considered
	// well-predicted and never probed (default 0.10 = 10%).
	MinError float64
	// Cooldown is how long a just-probed destination is ineligible
	// (default 5m), preventing the budget from chasing one stubborn
	// cluster every round.
	Cooldown time.Duration
	// Predict returns the currently served RTT prediction for a pair
	// (ok=false when unpredicted). When set, each probe's traceroute
	// carries the prediction it was scheduled against, enabling
	// per-destination residual learning in the merge (atlas.AdjustMS).
	// inano.Client.NewCorrector wires this automatically.
	Predict func(src, dst netsim.Prefix) (float64, bool)
	// Observe, when set, receives each round's successfully measured
	// traceroutes after the merge — the hook upstream observation sharing
	// rides on (Uploader.Observe queues them for the build server).
	Observe func([]Traceroute)
}

func (c Config) withDefaults() Config {
	if c.Budget <= 0 {
		c.Budget = 8
	}
	if c.Interval <= 0 {
		c.Interval = time.Minute
	}
	if c.MinError <= 0 {
		c.MinError = 0.10
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Minute
	}
	return c
}

// Round reports one corrective round for metrics and logs.
type Round struct {
	// Budget is the round's probe budget.
	Budget int
	// Targets is how many eligible destinations were scheduled (<= Budget).
	Targets int
	// Probes is how many traceroutes were actually issued.
	Probes int
	// ProbeErrors counts probes that failed.
	ProbeErrors int
	// Merged is the number of atlas changes the round's traceroutes
	// contributed.
	Merged int
}

// Utilization is the fraction of the budget spent (0 when the budget is 0).
func (r Round) Utilization() float64 {
	if r.Budget == 0 {
		return 0
	}
	return float64(r.Probes) / float64(r.Budget)
}

// Corrector turns tracked prediction error into corrective measurements:
// each round it asks the Tracker for the worst-mispredicted destinations
// within budget, traceroutes them through the Prober, and hands the
// results to the merge function (inano.Client.AddTraceroutes in the wired
// client, which patches the atlas copy-on-write).
type Corrector struct {
	tracker *Tracker
	prober  Prober
	merge   func([]Traceroute) int
	cfg     Config
	nowFn   func() time.Time // injected clock; tests use a fake
}

// NewCorrector wires a corrector. merge must be safe for concurrent use
// with queries (Client.AddTraceroutes is).
func NewCorrector(t *Tracker, p Prober, merge func([]Traceroute) int, cfg Config) *Corrector {
	return &Corrector{tracker: t, prober: p, merge: merge, cfg: cfg.withDefaults(), nowFn: time.Now}
}

// Config returns the corrector's effective (defaulted) configuration.
func (c *Corrector) Config() Config { return c.cfg }

// RunOnce executes one corrective round and returns its accounting. It
// stops issuing probes when ctx is cancelled; results already measured
// are still merged.
func (c *Corrector) RunOnce(ctx context.Context) Round {
	now := c.nowFn()
	targets := c.tracker.Worst(c.cfg.Budget, c.cfg.MinError, c.cfg.Cooldown, now)
	r := Round{Budget: c.cfg.Budget, Targets: len(targets)}
	var trs []Traceroute
	for _, tg := range targets {
		if ctx.Err() != nil {
			break
		}
		tr, err := c.prober.Probe(ctx, tg.Src, tg.Dst)
		r.Probes++
		if err != nil {
			r.ProbeErrors++
			// The probe was spent: cool the destination down so a
			// persistently unreachable cluster cannot monopolize every
			// round's budget.
			c.tracker.MarkProbed(tg.Cluster, now)
			continue
		}
		if c.cfg.Predict != nil {
			tr.PredictedRTTMS, tr.Predicted = c.cfg.Predict(tg.Src, tg.Dst)
		}
		trs = append(trs, tr)
		c.tracker.MarkCorrected(tg.Cluster, now)
	}
	if len(trs) > 0 {
		r.Merged = c.merge(trs)
		if c.cfg.Observe != nil {
			c.cfg.Observe(trs)
		}
	}
	return r
}

// Run executes rounds every Interval until ctx is done, reporting each
// round to onRound (nil = no reporting). An immediate first round runs at
// start so a freshly booted daemon with queued error does not wait a full
// interval.
func (c *Corrector) Run(ctx context.Context, onRound func(Round)) {
	if onRound == nil {
		onRound = func(Round) {}
	}
	onRound(c.RunOnce(ctx))
	t := time.NewTicker(c.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			onRound(c.RunOnce(ctx))
		}
	}
}
