// Package scenario is the adversarial scenario-replay harness: each
// scenario drives the full stack — lab world, atlas builds, deltas,
// swarm distribution, serving engines, upstream feedback — through a
// scripted adversarial timeline and ends in hard pass/fail invariants.
// Every scenario is deterministic (seeded world, no wall-clock in any
// decision), and every scenario ships with at least one known-bad
// mutation that must make the replay fail — the harness is tested in
// both directions, so a scenario that cannot fail cannot pass either.
//
// cmd/inano-eval exposes them as `-scenario <name>` (with
// `-scenario-mutate <m>` for the sabotage runs); CI replays all of them
// on quick seeds per PR.
package scenario

import (
	"context"
	"fmt"
	"strings"

	inano "inano"
	"inano/internal/experiments"
	"inano/internal/netsim"
)

// query answers one pair on c's current snapshot. The replays ask under
// the background context, which never ends, so there is no error.
func query(c *inano.Client, src, dst netsim.Prefix) inano.PathInfo {
	info, _ := c.Snapshot().Query(context.Background(), src, dst)
	return info
}

// Config selects the world a scenario replays against.
type Config struct {
	// Seed fixes the lab world; every scenario is deterministic in it.
	Seed int64
	// Scale is "quick" (CI per-PR) or "medium" (nightly).
	Scale string
	// Mutation optionally arms one of the scenario's known-bad mutations;
	// the replay must then fail its invariants.
	Mutation string
	// Lab optionally injects a pre-built lab so a test suite can replay
	// every scenario against one cached world. When nil the scenario
	// builds its own from Seed and Scale.
	Lab *experiments.Lab
}

func (c Config) lab() *experiments.Lab {
	if c.Lab != nil {
		return c.Lab
	}
	switch c.Scale {
	case "medium":
		return experiments.NewLab(experiments.MediumConfig(c.Seed))
	default:
		return experiments.NewLab(experiments.QuickConfig(c.Seed))
	}
}

// Report accumulates a replay's narration and invariant verdicts.
type Report struct {
	Name  string
	lines []string
	fails []string
}

// Logf records a narration line.
func (r *Report) Logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// Check records one invariant verdict; a false ok is a scenario failure.
// It returns ok so replays can abort dependent steps.
func (r *Report) Check(ok bool, format string, args ...any) bool {
	msg := fmt.Sprintf(format, args...)
	if ok {
		r.lines = append(r.lines, "PASS "+msg)
	} else {
		r.lines = append(r.lines, "FAIL "+msg)
		r.fails = append(r.fails, msg)
	}
	return ok
}

// Err returns nil if every invariant held, else an error naming the
// first violated one.
func (r *Report) Err() error {
	if len(r.fails) == 0 {
		return nil
	}
	return fmt.Errorf("scenario %s: %d invariant(s) violated; first: %s", r.Name, len(r.fails), r.fails[0])
}

// Render formats the full replay transcript.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s:\n", r.Name)
	for _, l := range r.lines {
		fmt.Fprintf(&b, "  %s\n", l)
	}
	if len(r.fails) == 0 {
		fmt.Fprintf(&b, "  => PASS (%d checks)\n", len(r.lines))
	} else {
		fmt.Fprintf(&b, "  => FAIL (%d violations)\n", len(r.fails))
	}
	return b.String()
}

// Scenario is one scripted adversarial timeline.
type Scenario struct {
	Name string
	// Summary is the one-line description shown by usage text and docs.
	Summary string
	// Mutations lists the known-bad sabotages the scenario understands;
	// replaying with any of them armed must fail.
	Mutations []string
	// Run replays the timeline, recording checks into rep.
	Run func(cfg Config, rep *Report)
}

// All returns every scenario in stable order.
func All() []Scenario {
	return []Scenario{
		churnScenario(),
		partitionScenario(),
		flashcrowdScenario(),
		rollbackScenario(),
	}
}

// lookup finds a scenario by name.
func lookup(name string) (Scenario, bool) {
	for _, s := range All() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// Replay validates cfg against the named scenario and runs it. The
// returned error reports usage problems (unknown scenario or mutation);
// invariant outcomes live in the Report.
func Replay(name string, cfg Config) (*Report, error) {
	sc, ok := lookup(name)
	if !ok {
		names := make([]string, 0, 4)
		for _, s := range All() {
			names = append(names, s.Name)
		}
		return nil, fmt.Errorf("unknown scenario %q (have: %s)", name, strings.Join(names, ", "))
	}
	if cfg.Mutation != "" {
		found := false
		for _, m := range sc.Mutations {
			if m == cfg.Mutation {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("scenario %s has no mutation %q (have: %s)", name, cfg.Mutation, strings.Join(sc.Mutations, ", "))
		}
	}
	rep := &Report{Name: sc.Name}
	if cfg.Mutation != "" {
		rep.Logf("mutation armed: %s (replay must fail)", cfg.Mutation)
	}
	sc.Run(cfg, rep)
	return rep, nil
}
