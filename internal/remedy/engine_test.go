package remedy

import (
	"strings"
	"testing"

	"ssdfail/internal/sparepool"
	"ssdfail/internal/trace"
)

// newEngine builds an engine with n spares for tests, failing the test
// on construction errors.
func newEngine(t *testing.T, p Policy, spares int) (*Engine, *sparepool.Pool) {
	t.Helper()
	pool, err := sparepool.NewPool(spares)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(p, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e, pool
}

// feed evaluates one pass with the given (id, score) pairs all on
// model MLCA, failing the test on error.
func feed(t *testing.T, e *Engine, pairs ...any) []Event {
	t.Helper()
	var scores []Score
	for i := 0; i < len(pairs); i += 2 {
		scores = append(scores, Score{
			DriveID: uint32(pairs[i].(int)),
			Model:   trace.MLCA,
			Score:   pairs[i+1].(float64),
		})
	}
	evs, err := e.Evaluate(scores, nil)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

func actions(evs []Event) []Action {
	out := make([]Action, len(evs))
	for i, ev := range evs {
		out[i] = ev.Action
	}
	return out
}

func TestHysteresisCordonsAfterConsecutiveBreaches(t *testing.T) {
	p := Policy{Threshold: 0.9, CordonAfter: 3, MaxDrainFraction: 0} // no draining
	e, _ := newEngine(t, p, 0)

	// Two breaches, a dip, then three breaches: only the third
	// consecutive breach cordons.
	for i, score := range []float64{0.95, 0.95, 0.1, 0.95, 0.99} {
		evs := feed(t, e, 1, score)
		if len(evs) != 0 {
			t.Fatalf("pass %d: unexpected events %v", i, actions(evs))
		}
	}
	evs := feed(t, e, 1, 0.93)
	if len(evs) != 1 || evs[0].Action != ActionCordon {
		t.Fatalf("events = %v, want [cordon]", actions(evs))
	}
	if evs[0].Tick != 6 || evs[0].Drive != 1 || evs[0].Score != 0.93 {
		t.Fatalf("cordon event = %+v", evs[0])
	}
	if st := e.Stats(); st.Cordons != 1 || st.Evaluations != 6 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHysteresisUncordonsAfterConsecutiveClears(t *testing.T) {
	p := Policy{Threshold: 0.9, CordonAfter: 1, UncordonAfter: 2, MaxDrainFraction: 0}
	e, _ := newEngine(t, p, 0)

	feed(t, e, 1, 0.95) // cordon
	// One clear, a breach (resets), then two clears: uncordon on the
	// second consecutive clear.
	if evs := feed(t, e, 1, 0.5); len(evs) != 0 {
		t.Fatalf("one clear must not uncordon: %v", actions(evs))
	}
	if evs := feed(t, e, 1, 0.95); len(evs) != 0 {
		t.Fatalf("breach mid-clears must not act: %v", actions(evs))
	}
	feed(t, e, 1, 0.5)
	evs := feed(t, e, 1, 0.4)
	if len(evs) != 1 || evs[0].Action != ActionUncordon {
		t.Fatalf("events = %v, want [uncordon]", actions(evs))
	}
	counts := e.StateCounts()
	if counts[StateHealthy] != 1 || counts[StateCordoned] != 0 {
		t.Fatalf("state counts = %v", counts)
	}
}

func TestCordonDrainSwapLifecycle(t *testing.T) {
	p := Policy{Threshold: 0.9, CordonAfter: 1, MaxDrainFraction: 1,
		DrainTicks: 2, SwapCost: 1.5, LossCost: 10}
	e, pool := newEngine(t, p, 1)

	// Tick 1: breach -> cordon and drain admission in the same pass.
	evs := feed(t, e, 1, 0.99)
	if got := actions(evs); len(got) != 2 || got[0] != ActionCordon || got[1] != ActionDrainStart {
		t.Fatalf("tick 1 events = %v, want [cordon drain_start]", got)
	}
	// Tick 2: still draining (drainDone = 1+2 = 3).
	if evs := feed(t, e, 1, 0.99); len(evs) != 0 {
		t.Fatalf("tick 2 events = %v, want none", actions(evs))
	}
	// Tick 3: drain due -> swap, spare 1 allocated, cost booked.
	evs = feed(t, e, 1, 0.99)
	if len(evs) != 1 || evs[0].Action != ActionSwap {
		t.Fatalf("tick 3 events = %v, want [swap]", actions(evs))
	}
	if evs[0].Spare != 1 || evs[0].Cost != 1.5 {
		t.Fatalf("swap event = %+v", evs[0])
	}
	if st := pool.Stats(); st.InUse != 1 || st.Free != 0 {
		t.Fatalf("pool = %+v", st)
	}
	st := e.Stats()
	if st.Swaps != 1 || st.SwapCost != 1.5 || st.DrainStarts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// A swapped drive's later scores change nothing.
	if evs := feed(t, e, 1, 0.99); len(evs) != 0 {
		t.Fatalf("swapped drive acted again: %v", actions(evs))
	}
}

func TestZeroDrainTicksSwapsOnAdmissionTick(t *testing.T) {
	p := Policy{Threshold: 0.9, CordonAfter: 1, MaxDrainFraction: 1, DrainTicks: 0, SwapCost: 1}
	e, _ := newEngine(t, p, 1)
	evs := feed(t, e, 1, 0.95)
	got := actions(evs)
	if len(got) != 3 || got[0] != ActionCordon || got[1] != ActionDrainStart || got[2] != ActionSwap {
		t.Fatalf("events = %v, want [cordon drain_start swap]", got)
	}
}

func TestRateLimitNeverExceedsModelCap(t *testing.T) {
	// 10 drives, 20% cap -> at most 2 draining at once. DrainTicks
	// large so drains never complete during the test.
	p := Policy{Threshold: 0.9, CordonAfter: 1, MaxDrainFraction: 0.2, DrainTicks: 100}
	e, _ := newEngine(t, p, 10)
	var scores []Score
	for id := 1; id <= 10; id++ {
		scores = append(scores, Score{DriveID: uint32(id), Model: trace.MLCA, Score: 0.99})
	}
	for tick := 0; tick < 5; tick++ {
		if _, err := e.Evaluate(scores, nil); err != nil {
			t.Fatal(err)
		}
		for _, mc := range e.ByModel() {
			if mc.Draining > mc.DrainCap {
				t.Fatalf("tick %d: %d draining > cap %d", tick, mc.Draining, mc.DrainCap)
			}
		}
	}
	counts := e.StateCounts()
	if counts[StateDraining] != 2 || counts[StateCordoned] != 8 {
		t.Fatalf("state counts = %v, want 2 draining, 8 cordoned", counts)
	}
	if st := e.Stats(); st.RateLimitedTicks == 0 {
		t.Fatal("rate-limited deferrals were not counted")
	}
}

func TestRateLimitAdmissionIsFIFOByCordonTick(t *testing.T) {
	// Cap 1: drive 5 cordons first (tick 1), drive 1 second (tick 2).
	// When the slot frees, drive 5 — the longer waiter — wins despite
	// its higher ID.
	p := Policy{Threshold: 0.9, CordonAfter: 1, MaxDrainFraction: 0.5, DrainTicks: 1, SwapCost: 1}
	e, _ := newEngine(t, p, 2)
	// Two drives registered -> cap = floor(0.5*2) = 1.
	feed(t, e, 5, 0.95, 1, 0.1) // tick 1: drive 5 cordons and drains
	feed(t, e, 5, 0.95, 1, 0.95)
	// tick 2: drive 1 cordons, slot occupied by 5; tick 2 >= drainDone(2) -> 5 swaps.
	// tick 3: slot free, drive 1 admitted.
	evs := feed(t, e, 1, 0.95)
	var drainStarts []uint32
	for _, ev := range e.Log().Recent(0) {
		if ev.Action == ActionDrainStart {
			drainStarts = append(drainStarts, ev.Drive)
		}
	}
	if len(drainStarts) != 2 || drainStarts[0] != 5 || drainStarts[1] != 1 {
		t.Fatalf("drain admission order = %v, want [5 1] (FIFO by cordon tick); tick-3 events %v",
			drainStarts, actions(evs))
	}
}

func TestPoolExhaustionBlocksSwapUntilRestock(t *testing.T) {
	p := Policy{Threshold: 0.9, CordonAfter: 1, MaxDrainFraction: 1, DrainTicks: 0, SwapCost: 1}
	e, pool := newEngine(t, p, 0)

	evs := feed(t, e, 1, 0.95)
	got := actions(evs)
	if len(got) != 3 || got[2] != ActionSwapBlocked {
		t.Fatalf("events = %v, want [... swap_blocked]", got)
	}
	// Retries are silent (no repeated swap_blocked spam) but counted.
	if evs := feed(t, e, 1, 0.95); len(evs) != 0 {
		t.Fatalf("retry emitted events: %v", actions(evs))
	}
	if st := e.Stats(); st.PoolExhaustedTicks != 2 {
		t.Fatalf("pool exhausted ticks = %d, want 2", st.PoolExhaustedTicks)
	}
	// Restock; the parked drain completes on the next evaluation.
	if err := pool.Restock(1); err != nil {
		t.Fatal(err)
	}
	evs = feed(t, e, 1, 0.95)
	if len(evs) != 1 || evs[0].Action != ActionSwap {
		t.Fatalf("post-restock events = %v, want [swap]", actions(evs))
	}
}

func TestFailureAccounting(t *testing.T) {
	p := Policy{Threshold: 0.9, CordonAfter: 1, MaxDrainFraction: 1,
		DrainTicks: 0, SwapCost: 1, LossCost: 20}
	e, _ := newEngine(t, p, 4)

	// Drive 1 swaps, then its ground-truth failure arrives: prevented.
	feed(t, e, 1, 0.95, 2, 0.1, 3, 0.1)
	if _, err := e.Evaluate(nil, []uint32{1}); err != nil {
		t.Fatal(err)
	}
	// Drive 2 fails unremediated: data loss at LossCost.
	evs, err := e.Evaluate(nil, []uint32{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Action != ActionFail || evs[0].Cost != 20 {
		t.Fatalf("fail events = %+v", evs)
	}
	st := e.Stats()
	if st.Failures != 2 || st.PreventedLosses != 1 || st.DataLosses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.LossCost != 20 || st.SwapCost != 1 {
		t.Fatalf("costs = swap %v loss %v", st.SwapCost, st.LossCost)
	}
	s := e.Summary()
	if s.TotalCost != 21 || s.DoNothingCost != 40 || s.Savings != 19 {
		t.Fatalf("summary = %+v", s)
	}
	if s.PrematureSwaps != 0 {
		t.Fatalf("premature swaps = %d, want 0 (the swap was justified)", s.PrematureSwaps)
	}

	// Drive 3 swaps and never fails: a premature swap in the summary.
	feed(t, e, 3, 0.95)
	if s := e.Summary(); s.PrematureSwaps != 1 {
		t.Fatalf("premature swaps = %d, want 1", s.PrematureSwaps)
	}
}

func TestFailureWhileDrainingFreesTheSlot(t *testing.T) {
	p := Policy{Threshold: 0.9, CordonAfter: 1, MaxDrainFraction: 0.5, DrainTicks: 100, LossCost: 5}
	e, _ := newEngine(t, p, 2)
	// Two drives -> cap 1. Drive 1 drains; drive 2 waits.
	feed(t, e, 1, 0.95, 2, 0.95)
	counts := e.StateCounts()
	if counts[StateDraining] != 1 || counts[StateCordoned] != 1 {
		t.Fatalf("state counts = %v", counts)
	}
	// Drive 1 dies mid-drain: slot frees, drive 2 admitted same tick.
	if _, err := e.Evaluate([]Score{{DriveID: 2, Model: trace.MLCA, Score: 0.95}}, []uint32{1}); err != nil {
		t.Fatal(err)
	}
	counts = e.StateCounts()
	if counts[StateDraining] != 1 || counts[StateFailed] != 1 {
		t.Fatalf("state counts after mid-drain failure = %v", counts)
	}
}

func TestFailErrors(t *testing.T) {
	e, _ := newEngine(t, Policy{Threshold: 0.9, CordonAfter: 1}, 0)
	if _, err := e.Fail(99); err == nil {
		t.Fatal("failure of unknown drive should error")
	}
	feed(t, e, 1, 0.1)
	if _, err := e.Fail(1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Fail(1); err == nil {
		t.Fatal("double failure should error")
	}
}

func TestModelChangeRejected(t *testing.T) {
	e, _ := newEngine(t, Policy{Threshold: 0.9, CordonAfter: 1}, 0)
	feed(t, e, 1, 0.1)
	_, err := e.Evaluate([]Score{{DriveID: 1, Model: trace.MLCB, Score: 0.5}}, nil)
	if err == nil || !strings.Contains(err.Error(), "model changed") {
		t.Fatalf("err = %v, want model-change rejection", err)
	}
}

func TestPolicyValidation(t *testing.T) {
	pool, _ := sparepool.NewPool(0)
	for _, p := range []Policy{
		{Threshold: -0.1},
		{Threshold: 1.5},
		{Threshold: 0.9, MaxDrainFraction: 2},
		{Threshold: 0.9, DrainTicks: -1},
		{Threshold: 0.9, SwapCost: -1},
	} {
		if _, err := NewEngine(p, pool, nil); err == nil {
			t.Errorf("policy %+v should be rejected", p)
		}
	}
	if _, err := NewEngine(DefaultPolicy(), nil, nil); err == nil {
		t.Error("nil pool should be rejected")
	}
}

func TestEventCanonicalEncoding(t *testing.T) {
	ev := Event{Tick: 12, Action: ActionSwap, Drive: 1003, Model: trace.MLCA,
		Score: 0.95, Spare: 4, Cost: 1.5}
	want := "t=12 action=swap drive=1003 model=MLC-A score=0.95 spare=4 cost=1.5"
	if got := ev.String(); got != want {
		t.Fatalf("encoding = %q, want %q", got, want)
	}
	// Zero spare and cost are omitted.
	ev2 := Event{Tick: 3, Action: ActionCordon, Drive: 7, Model: trace.MLCD, Score: 0.912345}
	want2 := "t=3 action=cordon drive=7 model=MLC-D score=0.912345"
	if got := ev2.String(); got != want2 {
		t.Fatalf("encoding = %q, want %q", got, want2)
	}
}

func TestEventLogRing(t *testing.T) {
	l := NewEventLog(nil)
	const n = DefaultRingCap + 2
	for i := 1; i <= n; i++ {
		l.Append(Event{Tick: uint64(i), Action: ActionCordon, Drive: uint32(i)})
	}
	if l.Total() != n {
		t.Fatalf("total = %d", l.Total())
	}
	recent := l.Recent(0)
	if len(recent) != DefaultRingCap || recent[0].Tick != 3 || recent[DefaultRingCap-1].Tick != n {
		t.Fatalf("recent = %d events from tick %d, want ticks 3..%d oldest first",
			len(recent), recent[0].Tick, n)
	}
	if two := l.Recent(2); len(two) != 2 || two[0].Tick != n-1 {
		t.Fatalf("recent(2) = %+v", two)
	}
}
