package scenario

import (
	"bytes"
	"context"
	"fmt"
	"time"

	inano "inano"
	"inano/internal/atlas"
	"inano/internal/swarm"
)

// partitionScenario replays a swarm partition across a day roll: deltas
// for day 0->1 and 1->2 are published through a real loopback swarm
// (tracker + seeds + chunk-hash-verified fetches); replica A receives
// both on time, replica B is partitioned when the day-1 delta ships and
// only heals after day 2. On heal B fetches the backlog and applies it
// in order. Invariants: both replicas converge to the byte-identical
// day-2 atlas, serve identical answers on the validation workload, and
// the flat (compiled) serving form of the converged atlas answers
// byte-identically to the map form.
//
// Mutation "skip-missed": on heal, B applies only the latest delta,
// skipping the one it missed — the classic gap bug. The byte-equality
// invariant must trip.
func partitionScenario() Scenario {
	return Scenario{
		Name:      "partition",
		Summary:   "replicas split across a day roll must converge byte-identically after heal",
		Mutations: []string{"skip-missed"},
		Run: func(cfg Config, rep *Report) {
			l := cfg.lab()
			a0, a1, a2 := l.Day(0).Atlas, l.Day(1).Atlas, l.Day(2).Atlas
			encDelta := func(d *atlas.Delta) []byte {
				var b bytes.Buffer
				if err := d.Encode(&b); err != nil {
					rep.Check(false, "delta encode: %v", err)
					return nil
				}
				return b.Bytes()
			}
			b01 := encDelta(atlas.Diff(a0, a1))
			b12 := encDelta(atlas.Diff(a1, a2))
			if b01 == nil || b12 == nil {
				return
			}
			rep.Logf("deltas: day0->1 %dB, day1->2 %dB", len(b01), len(b12))

			// Publish both deltas through a real loopback swarm.
			tk, err := swarm.StartTracker("127.0.0.1:0")
			if !rep.Check(err == nil, "tracker started: %v", err) {
				return
			}
			defer tk.Close()
			m01 := swarm.NewManifest("delta-01", b01, 1<<14)
			m12 := swarm.NewManifest("delta-12", b12, 1<<14)
			s1, err := swarm.StartSeed(tk.Addr(), m01, b01)
			if !rep.Check(err == nil, "seeded delta-01: %v", err) {
				return
			}
			defer s1.Close()
			s2, err := swarm.StartSeed(tk.Addr(), m12, b12)
			if !rep.Check(err == nil, "seeded delta-12: %v", err) {
				return
			}
			defer s2.Close()

			fetch := func(m swarm.Manifest) []byte {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				data, err := swarm.Fetch(ctx, tk.Addr(), m)
				if !rep.Check(err == nil, "fetched %s: %v", m.Name, err) {
					return nil
				}
				return data
			}
			apply := func(a *atlas.Atlas, raw []byte, who string) bool {
				d, err := atlas.DecodeDelta(bytes.NewReader(raw))
				if !rep.Check(err == nil, "%s decoded delta: %v", who, err) {
					return false
				}
				// A delta applies only to its base: one applied out of order
				// is refused (atlas.ErrDeltaBase).
				err = a.Apply(d)
				return rep.Check(err == nil, "%s applied delta day %d->%d: %v", who, d.FromDay, d.ToDay, err)
			}

			// Replica A follows the roll live: applies each delta as it ships.
			sideA := a0.Clone()
			if ra := fetch(m01); ra == nil || !apply(sideA, ra, "A") {
				return
			}
			if ra := fetch(m12); ra == nil || !apply(sideA, ra, "A") {
				return
			}

			// Replica B was partitioned when delta-01 shipped. After the
			// heal it fetches the backlog and applies in order — unless the
			// skip-missed mutation drops the missed one.
			sideB := a0.Clone()
			if cfg.Mutation == "skip-missed" {
				rep.Logf("B (mutated) skips the missed delta and applies only delta-12")
				if rb := fetch(m12); rb == nil || !apply(sideB, rb, "B") {
					return
				}
			} else {
				rep.Logf("B heals and applies the backlog in order")
				if rb := fetch(m01); rb == nil || !apply(sideB, rb, "B") {
					return
				}
				if rb := fetch(m12); rb == nil || !apply(sideB, rb, "B") {
					return
				}
			}

			// Invariant 1: byte-identical converged atlases.
			var ea, eb bytes.Buffer
			if err := sideA.Encode(&ea); !rep.Check(err == nil, "A encodes: %v", err) {
				return
			}
			if err := sideB.Encode(&eb); !rep.Check(err == nil, "B encodes: %v", err) {
				return
			}
			rep.Check(bytes.Equal(ea.Bytes(), eb.Bytes()),
				"replicas byte-identical after heal (A %dB, B %dB)", ea.Len(), eb.Len())
			rep.Check(sideA.Day == a2.Day && sideB.Day == a2.Day,
				"both replicas at day %d (A=%d, B=%d)", a2.Day, sideA.Day, sideB.Day)

			// Invariant 2: identical served answers on the day-2 validation
			// workload, and — on the serialized converged state — the .bin
			// load path (decode into a map atlas) and the flat load path
			// (compile to the serving form) must answer byte-identically.
			engA := inano.FromAtlas(sideA)
			engB := inano.FromAtlas(sideB)
			dec, err := atlas.Decode(bytes.NewReader(ea.Bytes()))
			if !rep.Check(err == nil, "A's encoding decodes: %v", err) {
				return
			}
			engBin := inano.FromAtlas(dec)
			engFlat := inano.FromFlat(atlas.Compile(dec))
			pairs := l.Day(2).Validation
			if len(pairs) > 400 {
				pairs = pairs[:400]
			}
			mismatchAB, mismatchFlat, found := 0, 0, 0
			for _, vp := range pairs {
				ra := fmt.Sprintf("%+v", query(engA, vp.Src, vp.Dst))
				rb := fmt.Sprintf("%+v", query(engB, vp.Src, vp.Dst))
				rbin := fmt.Sprintf("%+v", query(engBin, vp.Src, vp.Dst))
				rf := fmt.Sprintf("%+v", query(engFlat, vp.Src, vp.Dst))
				if ra != rb {
					mismatchAB++
				}
				if rbin != rf {
					mismatchFlat++
				}
				if query(engA, vp.Src, vp.Dst).Found {
					found++
				}
			}
			rep.Check(found > 0, "converged atlas answers %d/%d workload pairs", found, len(pairs))
			rep.Check(mismatchAB == 0, "A and B agree on all %d pairs (%d mismatches)", len(pairs), mismatchAB)
			rep.Check(mismatchFlat == 0, ".bin and flat load paths agree on all %d pairs (%d mismatches)", len(pairs), mismatchFlat)
		},
	}
}
