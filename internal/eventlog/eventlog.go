// Package eventlog is the one replayable decision log shared by the
// remediation engine, the retrainer, and the router's failover
// tracker. Each event goes to an optional sink as one canonical line
// (its String form plus a newline), and the most recent DefaultRingCap
// events stay queryable in memory. The committed .eventlog goldens are
// sink output, so the line format is each event type's String method
// and nothing else.
package eventlog

import (
	"fmt"
	"io"
	"strconv"
	"sync"
)

// DefaultRingCap bounds the in-memory tail.
const DefaultRingCap = 256

// Float renders a float in the shortest round-trippable form, so
// encoded events are canonical.
func Float(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Log collects events: every event goes to the optional sink as one
// canonical line, and the most recent DefaultRingCap events stay
// queryable. Safe for concurrent use.
type Log[E fmt.Stringer] struct {
	mu      sync.Mutex
	sink    io.Writer
	ring    []E
	start   int // ring read position once full
	total   uint64
	sinkErr error
}

// New builds a log writing lines to sink (nil = in-memory ring only).
func New[E fmt.Stringer](sink io.Writer) *Log[E] {
	return &Log[E]{sink: sink}
}

// Append records one event.
func (l *Log[E]) Append(e E) {
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
			// masquerade as a replayable artifact. The ring keeps working.
			l.sinkErr = err
		}
	}
}

// Recent returns up to n of the most recent events, oldest first
// (n <= 0 returns the whole retained tail).
func (l *Log[E]) Recent(n int) []E {
	l.mu.Lock()
	defer l.mu.Unlock()
	size := len(l.ring)
	if n <= 0 || n > size {
		n = size
	}
	out := make([]E, 0, n)
	for i := size - n; i < size; i++ {
		out = append(out, l.ring[(l.start+i)%size])
	}
	return out
}

// Total returns how many events were ever appended.
func (l *Log[E]) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Err reports the first sink write failure, if any.
func (l *Log[E]) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinkErr
}
