package cluster

import (
	"fmt"
	"sort"

	"ssdfail/internal/eventlog"
)

// Tracker is the deterministic failover state machine: probe outcomes
// go in, node up/down transitions and sticky follower promotions come
// out. It is pure state — no clocks, no goroutines, no I/O — so the
// same probe history always yields the same event log, which is what
// the committed partition scenarios under scenarios/cluster/ replay
// and diff byte for byte. The live prober feeds it real probe results
// under the router's lock.
//
// Hysteresis mirrors the remediation engine's: an endpoint is marked
// down after DownAfter consecutive failed probes and up again after
// UpAfter consecutive successes. Promotion is one-way ("sticky"):
// once a partition's primary is down and its follower is up, writes
// and reads for that partition target the follower until the process
// is reconfigured — flapping a half-recovered primary back into
// rotation is how split-brain ingest happens, and the WAL stream only
// flows primary→follower.
type Tracker struct {
	downAfter int
	upAfter   int

	order []string // endpoint names in declaration order (probe order)
	eps   map[string]*endpoint
	parts []*partitionState

	log *eventlog.Log[Event]
}

// Partition declares one ring partition: a primary endpoint and an
// optional follower endpoint that replicates the primary's WAL.
type Partition struct {
	Primary  string
	Follower string // empty = no failover target
}

type endpoint struct {
	name       string
	up         bool
	consecFail int
	consecOK   int
}

type partitionState struct {
	Partition
	promoted bool
}

// Event is one tracker state transition.
type Event struct {
	Tick int
	Node string
	Kind string // "down", "up", "promote"
	// Target is the promotion target (promote events only).
	Target string
}

func (e Event) String() string {
	if e.Kind == "promote" {
		return fmt.Sprintf("t=%d node=%s event=promote target=%s", e.Tick, e.Node, e.Target)
	}
	return fmt.Sprintf("t=%d node=%s event=%s", e.Tick, e.Node, e.Kind)
}

// NewTracker builds a tracker over the given partitions, logging
// transitions to log (nil = in-memory ring only). Every endpoint
// starts up — a router boots optimistic and lets the first probe round
// correct it. downAfter/upAfter <= 0 default to 3 and 2.
func NewTracker(parts []Partition, downAfter, upAfter int, log *eventlog.Log[Event]) (*Tracker, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("cluster: tracker needs at least one partition")
	}
	if downAfter <= 0 {
		downAfter = 3
	}
	if upAfter <= 0 {
		upAfter = 2
	}
	if log == nil {
		log = eventlog.New[Event](nil)
	}
	t := &Tracker{downAfter: downAfter, upAfter: upAfter, eps: make(map[string]*endpoint), log: log}
	add := func(name string) error {
		if name == "" {
			return fmt.Errorf("cluster: empty endpoint name")
		}
		if _, dup := t.eps[name]; dup {
			return fmt.Errorf("cluster: endpoint %q declared twice", name)
		}
		t.eps[name] = &endpoint{name: name, up: true}
		t.order = append(t.order, name)
		return nil
	}
	for _, p := range parts {
		if err := add(p.Primary); err != nil {
			return nil, err
		}
		if p.Follower != "" {
			if err := add(p.Follower); err != nil {
				return nil, err
			}
		}
		t.parts = append(t.parts, &partitionState{Partition: p})
	}
	return t, nil
}

// Endpoints returns the endpoint names in declaration order — the
// canonical probe order, so concurrent probers that apply results in
// this order produce identical logs.
func (t *Tracker) Endpoints() []string { return append([]string(nil), t.order...) }

// Observe feeds one probe outcome and returns the transitions it
// caused. Tick is the probe round (1-based); it only labels events.
func (t *Tracker) Observe(tick int, name string, ok bool) []Event {
	ep := t.eps[name]
	if ep == nil {
		return nil
	}
	var out []Event
	emit := func(e Event) {
		t.log.Append(e)
		out = append(out, e)
	}
	if ok {
		ep.consecFail = 0
		ep.consecOK++
		if !ep.up && ep.consecOK >= t.upAfter {
			ep.up = true
			emit(Event{Tick: tick, Node: name, Kind: "up"})
		}
	} else {
		ep.consecOK = 0
		ep.consecFail++
		if ep.up && ep.consecFail >= t.downAfter {
			ep.up = false
			emit(Event{Tick: tick, Node: name, Kind: "down"})
		}
	}
	// Promotion is re-checked on every transition, not just the
	// primary's down event: a partition whose primary died while the
	// follower was also unreachable promotes the moment the follower
	// comes back.
	for _, p := range t.parts {
		if p.promoted || p.Follower == "" {
			continue
		}
		if !t.eps[p.Primary].up && t.eps[p.Follower].up {
			p.promoted = true
			emit(Event{Tick: tick, Node: p.Primary, Kind: "promote", Target: p.Follower})
		}
	}
	return out
}

// Up reports whether an endpoint is currently considered healthy.
func (t *Tracker) Up(name string) bool {
	ep := t.eps[name]
	return ep != nil && ep.up
}

// Active returns the endpoint requests for a partition should target:
// the follower once promoted, the primary otherwise.
func (t *Tracker) Active(primary string) string {
	for _, p := range t.parts {
		if p.Primary == primary {
			if p.promoted {
				return p.Follower
			}
			return p.Primary
		}
	}
	return primary
}

// Promoted reports whether a partition has failed over.
func (t *Tracker) Promoted(primary string) bool {
	for _, p := range t.parts {
		if p.Primary == primary {
			return p.promoted
		}
	}
	return false
}

// Log exposes the tracker's transition log.
func (t *Tracker) Log() *eventlog.Log[Event] { return t.log }

// EndpointStatus is one endpoint's health snapshot.
type EndpointStatus struct {
	Name     string `json:"name"`
	Up       bool   `json:"up"`
	Role     string `json:"role"` // "primary" or "follower"
	Active   bool   `json:"active"`
	Promoted bool   `json:"promoted,omitempty"`
}

// Status snapshots every endpoint, sorted by name.
func (t *Tracker) Status() []EndpointStatus {
	var out []EndpointStatus
	for _, p := range t.parts {
		active := t.Active(p.Primary)
		out = append(out, EndpointStatus{
			Name: p.Primary, Up: t.eps[p.Primary].up, Role: "primary",
			Active: active == p.Primary, Promoted: p.promoted,
		})
		if p.Follower != "" {
			out = append(out, EndpointStatus{
				Name: p.Follower, Up: t.eps[p.Follower].up, Role: "follower",
				Active: active == p.Follower,
			})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}
