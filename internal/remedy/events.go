package remedy

import (
	"fmt"
	"strings"

	"ssdfail/internal/eventlog"
	"ssdfail/internal/trace"
)

// Action is the kind of one remediation decision.
type Action string

const (
	// ActionCordon: a healthy drive breached the threshold for
	// CordonAfter consecutive evaluations and takes no new data.
	ActionCordon Action = "cordon"
	// ActionUncordon: a cordoned drive cleared the threshold for
	// UncordonAfter consecutive evaluations and serves again.
	ActionUncordon Action = "uncordon"
	// ActionDrainStart: the rate limiter admitted a cordoned drive
	// into one of its model's drain slots.
	ActionDrainStart Action = "drain_start"
	// ActionSwap: the drain completed and a spare was allocated.
	ActionSwap Action = "swap"
	// ActionSwapBlocked: the drain completed but the pool was empty;
	// emitted once per drive, retried silently each tick after.
	ActionSwapBlocked Action = "swap_blocked"
	// ActionFail: the drive actually failed (ground truth arrived).
	ActionFail Action = "fail"
)

// Event is one remediation decision, the unit of the replayable log.
// Time is the evaluation tick, not a wall clock: the engine owns no
// clock, so two runs over the same score sequence produce the same
// events — byte for byte once encoded.
type Event struct {
	Tick   uint64
	Action Action
	Drive  uint32
	Model  trace.Model
	// Score is the drive's score at the decision (the breaching score
	// for cordon, the clearing score for uncordon, last known
	// otherwise). Fail events carry the last score the engine saw —
	// a symptom-free failure (paper §4) fails with a low one.
	Score float64
	// Spare is the allocated spare ID on swap events, 0 otherwise.
	Spare int
	// Cost is the charge this event booked (SwapCost on swap,
	// LossCost on an unremediated fail), 0 otherwise.
	Cost float64
}

// String renders the canonical single-line encoding:
//
//	t=12 action=cordon drive=1003 model=MLC-A score=0.95
//
// Fields appear in fixed order; spare and cost only when nonzero.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%d action=%s drive=%d model=%s score=%s",
		e.Tick, e.Action, e.Drive, e.Model, eventlog.Float(e.Score))
	if e.Spare != 0 {
		fmt.Fprintf(&b, " spare=%d", e.Spare)
	}
	if e.Cost != 0 {
		fmt.Fprintf(&b, " cost=%s", eventlog.Float(e.Cost))
	}
	return b.String()
}
