package remedy

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

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

// fmtFloat renders a float in the shortest round-trippable form, so
// encoded events are canonical.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// String renders the canonical single-line encoding:
//
//	t=12 action=cordon drive=1003 model=MLC-A score=0.95
//
// Fields appear in fixed order; spare and cost only when nonzero.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%d action=%s drive=%d model=%s score=%s",
		e.Tick, e.Action, e.Drive, e.Model, fmtFloat(e.Score))
	if e.Spare != 0 {
		fmt.Fprintf(&b, " spare=%d", e.Spare)
	}
	if e.Cost != 0 {
		fmt.Fprintf(&b, " cost=%s", fmtFloat(e.Cost))
	}
	return b.String()
}

// EventLog collects the engine's decisions: every event goes to the
// optional sink as one canonical line, and the most recent
// DefaultRingCap events stay queryable in memory (the serve layer's
// /v1/remedy/log). Safe for concurrent use.
type EventLog struct {
	mu      sync.Mutex
	sink    io.Writer
	ring    []Event
	start   int // ring read position
	total   uint64
	sinkErr error
}

// DefaultRingCap bounds the in-memory tail.
const DefaultRingCap = 256

// NewEventLog builds a log writing lines to sink (nil = in-memory ring
// only).
func NewEventLog(sink io.Writer) *EventLog {
	return &EventLog{sink: sink}
}

// Append records one event.
func (l *EventLog) Append(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if len(l.ring) < DefaultRingCap {
		l.ring = append(l.ring, e)
	} else {
		l.ring[l.start] = e
		l.start = (l.start + 1) % DefaultRingCap
	}
	if l.sink != nil && l.sinkErr == nil {
		if _, err := io.WriteString(l.sink, e.String()+"\n"); err != nil {
			// Latch the first failure: a partially written log must not
			// masquerade as a replayable artifact. Err surfaces it.
			l.sinkErr = err
		}
	}
}

// Recent returns up to n of the most recent events, oldest first
// (n <= 0 returns the whole retained tail).
func (l *EventLog) Recent(n int) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	size := len(l.ring)
	if n <= 0 || n > size {
		n = size
	}
	out := make([]Event, 0, n)
	for i := size - n; i < size; i++ {
		out = append(out, l.ring[(l.start+i)%size])
	}
	return out
}

// Total returns how many events were ever appended.
func (l *EventLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Err reports the first sink write failure, if any.
func (l *EventLog) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinkErr
}
