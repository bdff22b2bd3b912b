package remedy

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ssdfail/internal/eventlog"
	"ssdfail/internal/sparepool"
	"ssdfail/internal/trace"
)

// propFleet is a mixed-model fleet for the property runs: drive IDs
// are assigned round-robin across models so no model owns a contiguous
// ID block.
type propDrive struct {
	id    uint32
	model trace.Model
}

func propFleet(n int) []propDrive {
	fleet := make([]propDrive, n)
	for i := range fleet {
		fleet[i] = propDrive{id: uint32(i + 1), model: trace.Models[i%trace.NumModels]}
	}
	return fleet
}

// TestPropertyDrainNeverExceedsModelCap drives the engine with seeded
// random score streams and failures and asserts, after every single
// evaluation pass, that no model ever has more drives draining than
// floor(MaxDrainFraction x registered). This is the rate limiter's
// contract, checked from outside the engine.
func TestPropertyDrainNeverExceedsModelCap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			p := Policy{
				Threshold:        0.5 + rng.Float64()*0.4,
				CordonAfter:      1 + rng.Intn(4),
				UncordonAfter:    1 + rng.Intn(4),
				MaxDrainFraction: rng.Float64() * 0.5,
				DrainTicks:       rng.Intn(6),
				SwapCost:         1,
				LossCost:         20,
			}
			fleet := propFleet(12 + rng.Intn(24))
			pool, err := sparepool.NewPool(rng.Intn(len(fleet)))
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(p, pool, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range fleet {
				if err := e.Register(d.id, d.model); err != nil {
					t.Fatal(err)
				}
			}
			dead := make(map[uint32]bool)
			for tick := 0; tick < 200; tick++ {
				var scores []Score
				var failures []uint32
				for _, d := range fleet {
					if dead[d.id] {
						continue
					}
					// Occasionally a live drive dies this tick.
					if rng.Float64() < 0.005 {
						dead[d.id] = true
						failures = append(failures, d.id)
						continue
					}
					// Most drives report most ticks; silence is legal.
					if rng.Float64() < 0.9 {
						scores = append(scores, Score{
							DriveID: d.id, Model: d.model, Score: rng.Float64(),
						})
					}
				}
				if _, err := e.Evaluate(scores, failures); err != nil {
					t.Fatalf("tick %d: %v", tick, err)
				}
				for _, mc := range e.ByModel() {
					want := int(p.MaxDrainFraction * float64(mc.Registered))
					if mc.DrainCap != want {
						t.Fatalf("tick %d: %s cap = %d, want floor(%v*%d) = %d",
							tick, mc.Model, mc.DrainCap, p.MaxDrainFraction, mc.Registered, want)
					}
					if mc.Draining > mc.DrainCap {
						t.Fatalf("tick %d: %s has %d draining, cap %d",
							tick, mc.Model, mc.Draining, mc.DrainCap)
					}
				}
			}
		})
	}
}

// TestPropertyNoCordonBeforeConsecutiveBreaches replays seeded flapping
// score streams and checks every cordon event against an independent
// shadow record of each drive's recent scores: a cordon may only fire
// when the drive's last CordonAfter reported scores were all at or
// above the threshold.
func TestPropertyNoCordonBeforeConsecutiveBreaches(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			p := Policy{
				Threshold:        0.7,
				CordonAfter:      2 + rng.Intn(4),
				UncordonAfter:    1 + rng.Intn(3),
				MaxDrainFraction: 1,
				DrainTicks:       1,
				SwapCost:         1,
				LossCost:         20,
			}
			fleet := propFleet(9)
			pool, err := sparepool.NewPool(len(fleet))
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(p, pool, nil)
			if err != nil {
				t.Fatal(err)
			}
			// recent[id] holds the drive's reported scores, newest last.
			recent := make(map[uint32][]float64)
			for tick := 0; tick < 300; tick++ {
				var scores []Score
				for _, d := range fleet {
					// Flap hard around the threshold.
					s := 0.7 + (rng.Float64()-0.5)*0.3
					scores = append(scores, Score{DriveID: d.id, Model: d.model, Score: s})
					recent[d.id] = append(recent[d.id], s)
					if len(recent[d.id]) > p.CordonAfter {
						recent[d.id] = recent[d.id][1:]
					}
				}
				evs, err := e.Evaluate(scores, nil)
				if err != nil {
					t.Fatalf("tick %d: %v", tick, err)
				}
				for _, ev := range evs {
					if ev.Action != ActionCordon {
						continue
					}
					window := recent[ev.Drive]
					if len(window) < p.CordonAfter {
						t.Fatalf("tick %d: drive %d cordoned after only %d reports, need %d",
							tick, ev.Drive, len(window), p.CordonAfter)
					}
					for _, s := range window {
						if s < p.Threshold {
							t.Fatalf("tick %d: drive %d cordoned with a sub-threshold score %v in its last %d reports %v",
								tick, ev.Drive, s, p.CordonAfter, window)
						}
					}
				}
			}
			if e.Stats().Cordons == 0 {
				t.Fatal("flapping stream produced no cordons at all; property vacuous")
			}
		})
	}
}

// TestPropertyEvaluateDeterministic feeds the identical seeded stream
// to two independent engines and requires byte-identical event logs —
// the replayability contract the scenario goldens rely on.
func TestPropertyEvaluateDeterministic(t *testing.T) {
	run := func(seed, shuffleSeed int64) string {
		rng := rand.New(rand.NewSource(seed))
		shuf := rand.New(rand.NewSource(shuffleSeed))
		p := Policy{Threshold: 0.8, CordonAfter: 2, UncordonAfter: 2,
			MaxDrainFraction: 0.25, DrainTicks: 2, SwapCost: 1, LossCost: 20}
		fleet := propFleet(18)
		pool, _ := sparepool.NewPool(6)
		var sink strings.Builder
		e, err := NewEngine(p, pool, eventlog.New[Event](&sink))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range fleet {
			if err := e.Register(d.id, d.model); err != nil {
				t.Fatal(err)
			}
		}
		dead := make(map[uint32]bool)
		for tick := 0; tick < 150; tick++ {
			var scores []Score
			var failures []uint32
			for _, d := range fleet {
				if dead[d.id] {
					continue
				}
				if rng.Float64() < 0.01 {
					dead[d.id] = true
					failures = append(failures, d.id)
					continue
				}
				scores = append(scores, Score{DriveID: d.id, Model: d.model, Score: rng.Float64()})
			}
			// Shuffle the pass with a run-specific source: input order
			// must not leak into decisions, so the two runs feed the
			// same scores in different orders.
			shuf.Shuffle(len(scores), func(i, j int) { scores[i], scores[j] = scores[j], scores[i] })
			if _, err := e.Evaluate(scores, failures); err != nil {
				t.Fatalf("tick %d: %v", tick, err)
			}
		}
		return sink.String()
	}
	for seed := int64(7); seed < 12; seed++ {
		a, b := run(seed, seed+1000), run(seed, seed+2000)
		if a != b {
			t.Fatalf("seed %d: two identical runs diverged:\n--- first ---\n%s--- second ---\n%s", seed, a, b)
		}
		if a == "" {
			t.Fatalf("seed %d: run produced no events; determinism check vacuous", seed)
		}
	}
}
