package scenario

import (
	"bytes"
	"math"

	"inano/internal/atlas"
	"inano/internal/experiments"
	"inano/internal/netsim"
)

// rollbackScenario replays a bad-build rollback: day 0 ships with folded
// upstream corrections; the day-1 build is declared bad and never ships
// (the serving tier keeps the day-0 corrected atlas); days 2 and 3 ship
// fresh builds that carry the surviving corrections forward with the
// halve-then-drop decay discipline — no reporter re-confirms anything
// after the rollback. Invariants: corrections decay geometrically (the
// max |GlobalAdjustMS| at least halves per carry), the correction count
// never grows, every surviving day-3 correction is exactly half its
// day-2 value, and a delta-following client that stayed on the day-0
// corrected atlas through the rollback converges to the same corrections
// as the day-3 archive.
//
// Mutation "fossilize": the builder passes every prior correction as
// "freshly re-reported" (keep=everything), so nothing ever decays —
// stale corrections from before the rollback fossilize and the decay
// invariant must trip.
func rollbackScenario() Scenario {
	return Scenario{
		Name:      "rollback",
		Summary:   "serving an older atlas after a bad build: corrections decay, never fossilize",
		Mutations: []string{"fossilize"},
		Run: func(cfg Config, rep *Report) {
			l := cfg.lab()
			d0 := l.Day(0)
			pool := l.ValSrcs[1:]
			dsts := experiments.SharedTargets(d0)
			ro := experiments.CollectResiduals(l, 0, pool, dsts, 2, nil)
			a0c, n0 := atlas.FoldObservations(d0.Atlas, ro.Residuals)
			rep.Logf("day 0: %d reporters folded %d corrections", ro.Reporters, n0)
			if !rep.Check(n0 > 0, "day-0 archive carries %d > 0 corrections (scenario not vacuous)", n0) {
				return
			}
			max0 := maxAbsAdjust(a0c)
			rep.Logf("day 0 max |GlobalAdjustMS| = %.3f", max0)

			// keepFor models what the builder believes was freshly
			// re-reported. After a rollback nobody re-reported anything —
			// unless the fossilize mutation lies about it.
			keepFor := func(prev *atlas.Atlas) map[netsim.Prefix]float64 {
				if cfg.Mutation != "fossilize" {
					return nil
				}
				keep := make(map[netsim.Prefix]float64, len(prev.GlobalAdjustMS))
				for p, v := range prev.GlobalAdjustMS {
					keep[p] = float64(v)
				}
				return keep
			}

			// Day 1 is the bad build: it never ships, serving stays on a0c.
			rep.Logf("day 1 build is bad; serving tier stays on the day-0 corrected atlas")

			// Days 2 and 3 ship, carrying corrections with decay.
			b2 := l.Day(2).Atlas.Clone()
			n2 := atlas.CarryCorrections(b2, a0c, keepFor(a0c))
			b3 := l.Day(3).Atlas.Clone()
			n3 := atlas.CarryCorrections(b3, b2, keepFor(b2))
			max2, max3 := maxAbsAdjust(b2), maxAbsAdjust(b3)
			rep.Logf("carry: day2 %d corrections (max %.3f), day3 %d (max %.3f)", n2, max2, n3, max3)

			// Invariant 1: geometric decay of the strongest correction.
			rep.Check(max2 <= max0/2+1e-6, "day-2 max correction %.3f <= half of day-0 %.3f", max2, max0)
			rep.Check(max3 <= max0/4+1e-6, "day-3 max correction %.3f <= quarter of day-0 %.3f", max3, max0)
			// Invariant 2: the correction set only shrinks without fresh
			// reports.
			rep.Check(n2 <= n0 && n3 <= n2, "correction count non-increasing: %d -> %d -> %d", n0, n2, n3)
			// Invariant 3: every surviving day-3 correction is exactly half
			// its day-2 value (halve-then-drop, no other mutation).
			exact := true
			for p, v := range b3.GlobalAdjustMS {
				prev, ok := b2.GlobalAdjustMS[p]
				if !ok || v != prev/2 {
					exact = false
					break
				}
			}
			if cfg.Mutation != "fossilize" {
				rep.Check(exact, "every surviving day-3 correction is exactly half its day-2 value")
			}

			// Invariant 4: a delta-following client that stayed on a0c
			// through the rollback converges to the day-3 archive's
			// corrections after applying the day-2 and day-3 deltas (wire
			// round-trip included).
			client := a0c.Clone()
			for _, step := range []*atlas.Atlas{b2, b3} {
				var buf bytes.Buffer
				if err := atlas.Diff(client, step).Encode(&buf); !rep.Check(err == nil, "delta encodes: %v", err) {
					return
				}
				d, err := atlas.DecodeDelta(bytes.NewReader(buf.Bytes()))
				if !rep.Check(err == nil, "delta decodes: %v", err) {
					return
				}
				if err := client.Apply(d); !rep.Check(err == nil, "delta applies: %v", err) {
					return
				}
			}
			rep.Check(len(client.GlobalAdjustMS) == len(b3.GlobalAdjustMS),
				"client converged to %d corrections, archive has %d", len(client.GlobalAdjustMS), len(b3.GlobalAdjustMS))
			worst := 0.0
			for p, v := range b3.GlobalAdjustMS {
				if d := math.Abs(float64(client.GlobalAdjustMS[p] - v)); d > worst {
					worst = d
				}
			}
			// The wire format quantizes corrections to 0.01ms, so the
			// delta-follower can sit up to half a quantum off the archive.
			rep.Check(worst <= 0.0051, "client corrections match archive within wire quantization (worst %.6f)", worst)
		},
	}
}

func maxAbsAdjust(a *atlas.Atlas) float64 {
	m := 0.0
	for _, v := range a.GlobalAdjustMS {
		if x := math.Abs(float64(v)); x > m {
			m = x
		}
	}
	return m
}
