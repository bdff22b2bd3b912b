package remedy

import (
	"bytes"
	"fmt"
	"sort"

	"ssdfail/internal/sparepool"
	"ssdfail/internal/trace"
)

// RunResult is one scenario execution: the event log (the replayable
// artifact — byte-identical across reruns and GOMAXPROCS), the closing
// summary, and any assertion violations.
type RunResult struct {
	Scenario *Scenario
	Summary  Summary
	Pool     sparepool.PoolStats
	// EventLog is the canonical line encoding of every decision.
	EventLog []byte
	// Violations is empty when every assertion held.
	Violations []string
}

// Run executes a validated scenario from tick 1 through sc.Ticks:
// each tick applies that tick's events (scores pin, failures inject,
// restocks arrive), evaluates the whole live fleet, and checks the
// per-tick invariants; end-state assertions are checked after the
// final tick. The runner is single-threaded on purpose — determinism
// is load-bearing (scenario goldens diff the log byte for byte), and a
// control plane's decision loop is never the throughput bottleneck.
func Run(sc *Scenario) (*RunResult, error) {
	pool, err := sparepool.NewPool(sc.Spares)
	if err != nil {
		return nil, err
	}
	var logBuf bytes.Buffer
	engine, err := NewEngine(sc.Policy.Resolve(), pool, NewEventLog(&logBuf))
	if err != nil {
		return nil, err
	}

	// Register the declared fleet and pin every drive to the base
	// score; scores persist until an event changes them.
	type driveRef struct {
		id    uint32
		model trace.Model
	}
	var fleet []driveRef
	scores := make(map[uint32]float64)
	failed := make(map[uint32]bool)
	for _, g := range sc.Fleet {
		for k := 0; k < g.Count; k++ {
			id := g.FirstID + uint32(k)
			fleet = append(fleet, driveRef{id: id, model: g.model})
			scores[id] = sc.BaseScore
			if err := engine.Register(id, g.model); err != nil {
				return nil, err
			}
		}
	}
	sort.Slice(fleet, func(a, b int) bool { return fleet[a].id < fleet[b].id })

	// Index events by tick once; ties within a tick apply in file order.
	eventsAt := make(map[int][]*ScenarioEvent)
	for i := range sc.Events {
		ev := &sc.Events[i]
		eventsAt[ev.At] = append(eventsAt[ev.At], ev)
	}

	res := &RunResult{Scenario: sc}
	viol := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}

	// Spares consumed by swaps come back through the repair pipeline
	// after the configured delay; returns are credited at the start of
	// their tick, before that tick's scripted events and evaluation.
	repairDue := make(map[int]int)

	for tick := 1; tick <= sc.Ticks; tick++ {
		if n := repairDue[tick]; n > 0 {
			if err := pool.Restock(n); err != nil {
				return nil, err
			}
			delete(repairDue, tick)
		}
		var failures []uint32
		for _, ev := range eventsAt[tick] {
			switch {
			case ev.SetScore != nil:
				scores[ev.SetScore.Drive] = ev.SetScore.Score
			case ev.SetModelScore != nil:
				for _, d := range fleet {
					if d.model == ev.SetModelScore.model {
						scores[d.id] = ev.SetModelScore.Score
					}
				}
			case ev.Fail != nil:
				if failed[ev.Fail.Drive] {
					return nil, fmt.Errorf("remedy: scenario %s: drive %d failed twice",
						sc.Name, ev.Fail.Drive)
				}
				failed[ev.Fail.Drive] = true
				failures = append(failures, ev.Fail.Drive)
			case ev.Restock != nil:
				if err := pool.Restock(ev.Restock.Count); err != nil {
					return nil, err
				}
			}
		}

		// Score every drive still reporting (failed drives go silent).
		pass := make([]Score, 0, len(fleet))
		for _, d := range fleet {
			if failed[d.id] {
				continue
			}
			pass = append(pass, Score{DriveID: d.id, Model: d.model, Score: scores[d.id]})
		}
		events, err := engine.Evaluate(pass, failures)
		if err != nil {
			return nil, fmt.Errorf("remedy: scenario %s: tick %d: %w", sc.Name, tick, err)
		}
		if sc.RepairReturnDelayTicks > 0 {
			swaps := 0
			for _, ev := range events {
				if ev.Action == ActionSwap {
					swaps++
				}
			}
			if swaps > 0 {
				repairDue[tick+sc.RepairReturnDelayTicks] += swaps
			}
		}

		// Per-tick invariants: the rate limiter's promise is checked
		// from outside the engine, every tick, not just at the end.
		counts := engine.ByModel()
		for i := range sc.Assertions {
			a := &sc.Assertions[i]
			if a.Type != "max_draining" {
				continue
			}
			frac := engine.Policy().MaxDrainFraction
			if a.Fraction != nil {
				frac = *a.Fraction
			}
			for _, mc := range counts {
				if mc.Model != a.model {
					continue
				}
				limit := int(frac * float64(mc.Registered))
				if mc.Draining > limit {
					viol("tick %d: %d %s drives draining, cap %d (%.0f%% of %d)",
						tick, mc.Draining, mc.Model, limit, frac*100, mc.Registered)
				}
			}
		}
	}

	res.Summary = engine.Summary()
	res.Pool = pool.Stats()
	if err := engine.Log().Err(); err != nil {
		return nil, fmt.Errorf("remedy: scenario %s: event log: %w", sc.Name, err)
	}
	res.EventLog = logBuf.Bytes()

	checkEndAssertions(sc, engine, res, viol)
	return res, nil
}

// checkEndAssertions evaluates the end-state half of the assertion set.
func checkEndAssertions(sc *Scenario, engine *Engine, res *RunResult, viol func(string, ...any)) {
	var drives map[uint32]DriveInfo
	bounds := func(a *Assertion, name string, got float64) {
		if a.Min != nil && got < *a.Min {
			viol("%s = %s, want >= %s", name, fmtFloat(got), fmtFloat(*a.Min))
		}
		if a.Max != nil && got > *a.Max {
			viol("%s = %s, want <= %s", name, fmtFloat(got), fmtFloat(*a.Max))
		}
	}
	for i := range sc.Assertions {
		a := &sc.Assertions[i]
		switch a.Type {
		case "state":
			if drives == nil {
				drives = make(map[uint32]DriveInfo)
				for _, d := range engine.Drives() {
					drives[d.ID] = d
				}
			}
			if got := drives[a.Drive].State; got != a.wantState {
				viol("drive %d ends in state %s, want %s", a.Drive, got, a.wantState)
			}
		case "counter":
			bounds(a, a.Counter, counterNames[a.Counter](res.Summary))
		case "cost":
			bounds(a, "total cost", res.Summary.TotalCost)
		case "savings":
			bounds(a, "savings", res.Summary.Savings)
		case "pool_free":
			bounds(a, "pool free", float64(res.Pool.Free))
		}
	}
}

// FormatSummary renders the closing books as a small fixed-order
// report, suitable for CLI output and log tails.
func FormatSummary(s Summary, pool sparepool.PoolStats) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "evaluations=%d cordons=%d uncordons=%d drain_starts=%d swaps=%d\n",
		s.Stats.Evaluations, s.Stats.Cordons, s.Stats.Uncordons, s.Stats.DrainStarts, s.Stats.Swaps)
	fmt.Fprintf(&b, "failures=%d prevented=%d data_losses=%d premature_swaps=%d\n",
		s.Stats.Failures, s.Stats.PreventedLosses, s.Stats.DataLosses, s.PrematureSwaps)
	fmt.Fprintf(&b, "rate_limited_ticks=%d pool_exhausted_ticks=%d pool_free=%d pool_in_use=%d\n",
		s.Stats.RateLimitedTicks, s.Stats.PoolExhaustedTicks, pool.Free, pool.InUse)
	fmt.Fprintf(&b, "cost=%s (swap=%s loss=%s) do_nothing=%s savings=%s\n",
		fmtFloat(s.TotalCost), fmtFloat(s.Stats.SwapCost), fmtFloat(s.Stats.LossCost),
		fmtFloat(s.DoNothingCost), fmtFloat(s.Savings))
	return b.String()
}
