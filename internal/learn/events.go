// Package learn closes the ingest → train → serve loop: a trainer that
// tails a serving daemon's WAL stream, reconstructs the fleet trace it
// describes, watches the ingested feature distribution for drift with
// the two-sample KS test, retrains the paper's predictor through the
// expgrid seed-derivation and matrix-cache machinery, and promotes the
// challenger over the serving champion only when its held-out AUC is
// non-inferior.
//
// The engine owns no clock and draws no sequential randomness: its
// entire behavior is a function of (config, WAL prefix), with every
// random choice seeded from the snapshot LSN through
// expgrid.DeriveSeed. Two runs over the same stream produce the same
// decisions, the same model bytes, and the same event log — byte for
// byte, at any worker count.
package learn

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// EventKind is the kind of one trainer decision.
type EventKind string

const (
	// EventObserve: periodic progress mark — stream position, fleet
	// size, frontier day.
	EventObserve EventKind = "observe"
	// EventBootstrap: the champion slot was seeded from a donor model's
	// predictor (the Table 8 cross-model transfer as a live operation).
	EventBootstrap EventKind = "bootstrap"
	// EventDrift: a KS check rejected "same distribution" for one
	// feature channel (reference window vs. current window).
	EventDrift EventKind = "drift"
	// EventSkip: a triggered retrain could not run (not enough labeled
	// rows, no holdout positives, ...); the trigger rebaselines and the
	// trainer keeps tailing.
	EventSkip EventKind = "skip"
	// EventRetrain: a challenger was trained; carries the snapshot LSN
	// and the derived seed, the reproducibility contract.
	EventRetrain EventKind = "retrain"
	// EventEvaluate: champion vs. challenger AUC on the held-out drive
	// partition.
	EventEvaluate EventKind = "evaluate"
	// EventPromote: the challenger passed the non-inferiority gate and
	// was installed; carries the SHA-256 of the published model bytes.
	EventPromote EventKind = "promote"
	// EventReject: the challenger failed the gate (or the promotion
	// side effect failed); the champion keeps serving.
	EventReject EventKind = "reject"
)

// fmtFloat renders a float in the shortest round-trippable form, so
// encoded events are canonical.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Event is one trainer decision, the unit of the replayable log. Time
// is the count of stream records applied so far, not a wall clock: the
// engine owns no clock, so two runs over the same WAL prefix produce
// the same events — byte for byte once encoded.
type Event struct {
	Tick uint64 // records applied when the event fired
	Kind EventKind
	LSN  uint64 // stream position (last applied record's LSN)

	// Fields is the kind-specific payload, already in canonical order.
	// Values are pre-rendered (fmtFloat for floats) so String is pure
	// concatenation.
	Fields []Field
}

// Field is one key=value pair of an event's payload.
type Field struct{ Key, Value string }

// F builds a string field.
func F(k, v string) Field { return Field{k, v} }

// Fint builds an integer field.
func Fint(k string, v int64) Field { return Field{k, strconv.FormatInt(v, 10)} }

// Fuint builds an unsigned integer field.
func Fuint(k string, v uint64) Field { return Field{k, strconv.FormatUint(v, 10)} }

// Ffloat builds a float field in canonical shortest form.
func Ffloat(k string, v float64) Field { return Field{k, fmtFloat(v)} }

// String renders the canonical single-line encoding:
//
//	t=4096 event=drift lsn=4096 channel=writes d=0.61 p=1.2e-10
//
// t, event, and lsn always lead; the rest is the kind's fixed field
// order. The encoding is pinned by the committed decision-log goldens.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%d event=%s lsn=%d", e.Tick, e.Kind, e.LSN)
	for _, f := range e.Fields {
		b.WriteByte(' ')
		b.WriteString(f.Key)
		b.WriteByte('=')
		b.WriteString(f.Value)
	}
	return b.String()
}

// EventLog collects the trainer's decisions: every event goes to the
// optional sink as one canonical line, and the most recent
// DefaultRingCap events stay queryable in memory. Safe for concurrent
// use.
type EventLog struct {
	mu      sync.Mutex
	sink    io.Writer
	ring    []Event
	start   int
	total   uint64
	sinkErr error
}

// DefaultRingCap bounds the in-memory tail.
const DefaultRingCap = 256

// NewEventLog builds a log writing lines to sink (nil = in-memory ring
// only).
func NewEventLog(sink io.Writer) *EventLog {
	return &EventLog{sink: sink, ring: make([]Event, 0, DefaultRingCap)}
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
		_, err := io.WriteString(l.sink, e.String()+"\n")
		if err != nil {
			// Latch the first sink error; the ring keeps working.
			l.sinkErr = err
		}
	}
}

// Recent returns up to n most recent events, oldest first.
func (l *EventLog) Recent(n int) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= 0 || n > len(l.ring) {
		n = len(l.ring)
	}
	out := make([]Event, 0, n)
	for i := len(l.ring) - n; i < len(l.ring); i++ {
		out = append(out, l.ring[(l.start+i)%len(l.ring)])
	}
	return out
}

// Total returns the number of events appended over the log's lifetime.
func (l *EventLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// SinkErr returns the latched sink write error, if any.
func (l *EventLog) SinkErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinkErr
}
