package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"ssdfail/internal/eventlog"
)

// Partition scenarios replay a scripted probe history through the
// Tracker and assert on the resulting topology, in the style of the
// remediation scenarios under scenarios/: strict JSON in, a canonical
// event log out, diffed byte for byte against a committed golden. They
// pin the failover semantics — when exactly a node is declared down,
// when a follower is promoted, and that promotion never reverts — so a
// tracker change that shifts any of those shows up as a golden diff,
// not a silent behavior change under chaos.

// ClusterScenario is one scenario file, decoded and validated.
type ClusterScenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Partitions declares the topology: primaries and their followers.
	Partitions []ScenarioPartition `json:"partitions"`
	// DownAfter/UpAfter override the tracker hysteresis (0 = defaults).
	DownAfter int `json:"down_after,omitempty"`
	UpAfter   int `json:"up_after,omitempty"`
	// Rounds is how many probe rounds to run. Each round probes every
	// endpoint once, in declaration order.
	Rounds int `json:"rounds"`
	// Events partition and heal endpoints at given rounds: from round
	// `at` (inclusive) a partitioned endpoint fails its probes until a
	// heal event names it again.
	Events []ClusterEvent `json:"events"`
	// Assertions are checked after the run.
	Assertions []ClusterAssertion `json:"assertions"`
}

// ScenarioPartition mirrors Partition with JSON tags.
type ScenarioPartition struct {
	Primary  string `json:"primary"`
	Follower string `json:"follower,omitempty"`
}

// ClusterEvent cuts or restores one endpoint's probe reachability.
// Exactly one of Partition/Heal must be set.
type ClusterEvent struct {
	At        int    `json:"at"`
	Partition string `json:"partition,omitempty"`
	Heal      string `json:"heal,omitempty"`
}

// ClusterAssertion is one post-run check:
//
//	"state"   — endpoint `node` ends the run with health `want` (up|down)
//	"active"  — partition with primary `node` ends routed to `want`
//	            (primary|follower)
//	"events"  — count of `kind` events ends within [min, max]
type ClusterAssertion struct {
	Type string `json:"type"`
	Node string `json:"node,omitempty"`
	Want string `json:"want,omitempty"`
	Kind string `json:"kind,omitempty"`
	Min  *int   `json:"min,omitempty"`
	Max  *int   `json:"max,omitempty"`
}

// ParseClusterScenario decodes and validates one scenario document.
func ParseClusterScenario(data []byte) (*ClusterScenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sc ClusterScenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("cluster: parsing scenario: %w", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return nil, fmt.Errorf("cluster: trailing data after scenario document")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// LoadClusterScenario reads and parses a scenario file.
func LoadClusterScenario(path string) (*ClusterScenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc, err := ParseClusterScenario(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// Validate checks structural invariants.
func (sc *ClusterScenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("cluster: scenario has no name")
	}
	if sc.Rounds <= 0 {
		return fmt.Errorf("cluster: scenario %s: rounds must be positive", sc.Name)
	}
	if len(sc.Partitions) == 0 {
		return fmt.Errorf("cluster: scenario %s: no partitions", sc.Name)
	}
	eps := make(map[string]bool)
	primaries := make(map[string]bool)
	for i, p := range sc.Partitions {
		for _, name := range []string{p.Primary, p.Follower} {
			if name == "" {
				continue
			}
			if eps[name] {
				return fmt.Errorf("cluster: scenario %s: endpoint %q declared twice", sc.Name, name)
			}
			eps[name] = true
		}
		if p.Primary == "" {
			return fmt.Errorf("cluster: scenario %s: partition %d has no primary", sc.Name, i)
		}
		primaries[p.Primary] = true
	}
	for i, ev := range sc.Events {
		if ev.At < 1 || ev.At > sc.Rounds {
			return fmt.Errorf("cluster: scenario %s: event %d at round %d outside [1, %d]",
				sc.Name, i, ev.At, sc.Rounds)
		}
		set := 0
		for _, name := range []string{ev.Partition, ev.Heal} {
			if name == "" {
				continue
			}
			set++
			if !eps[name] {
				return fmt.Errorf("cluster: scenario %s: event %d names undeclared endpoint %q",
					sc.Name, i, name)
			}
		}
		if set != 1 {
			return fmt.Errorf("cluster: scenario %s: event %d must set exactly one of partition/heal",
				sc.Name, i)
		}
	}
	for i, a := range sc.Assertions {
		switch a.Type {
		case "state":
			if !eps[a.Node] {
				return fmt.Errorf("cluster: scenario %s: assertion %d names undeclared endpoint %q",
					sc.Name, i, a.Node)
			}
			if a.Want != "up" && a.Want != "down" {
				return fmt.Errorf("cluster: scenario %s: assertion %d: want must be up or down", sc.Name, i)
			}
		case "active":
			if !primaries[a.Node] {
				return fmt.Errorf("cluster: scenario %s: assertion %d names non-primary %q",
					sc.Name, i, a.Node)
			}
			if a.Want != "primary" && a.Want != "follower" {
				return fmt.Errorf("cluster: scenario %s: assertion %d: want must be primary or follower",
					sc.Name, i)
			}
		case "events":
			switch a.Kind {
			case "down", "up", "promote":
			default:
				return fmt.Errorf("cluster: scenario %s: assertion %d: unknown event kind %q",
					sc.Name, i, a.Kind)
			}
		default:
			return fmt.Errorf("cluster: scenario %s: assertion %d: unknown type %q", sc.Name, i, a.Type)
		}
		if a.Min != nil && a.Max != nil && *a.Min > *a.Max {
			return fmt.Errorf("cluster: scenario %s: assertion %d: min %d > max %d",
				sc.Name, i, *a.Min, *a.Max)
		}
	}
	return nil
}

// ScenarioResult is one scenario run's outcome.
type ScenarioResult struct {
	// EventLog is the canonical tracker log, golden-diffable.
	EventLog []byte
	// Violations lists failed assertions (empty = pass).
	Violations []string
}

// RunScenario replays the scripted probe history: round r probes every
// endpoint once in declaration order, an endpoint currently cut by a
// partition event fails its probe, everything else succeeds.
func RunScenario(sc *ClusterScenario) (*ScenarioResult, error) {
	parts := make([]Partition, len(sc.Partitions))
	for i, p := range sc.Partitions {
		parts[i] = Partition{Primary: p.Primary, Follower: p.Follower}
	}
	var logBuf bytes.Buffer
	tr, err := NewTracker(parts, sc.DownAfter, sc.UpAfter, eventlog.New[Event](&logBuf))
	if err != nil {
		return nil, err
	}
	// Index events by round; within a round they apply in file order
	// before any probe fires.
	byRound := make(map[int][]ClusterEvent)
	for _, ev := range sc.Events {
		byRound[ev.At] = append(byRound[ev.At], ev)
	}
	cut := make(map[string]bool)
	counts := map[string]int{}
	for round := 1; round <= sc.Rounds; round++ {
		for _, ev := range byRound[round] {
			if ev.Partition != "" {
				cut[ev.Partition] = true
			} else {
				delete(cut, ev.Heal)
			}
		}
		for _, name := range tr.Endpoints() {
			for _, e := range tr.Observe(round, name, !cut[name]) {
				counts[e.Kind]++
			}
		}
	}
	res := &ScenarioResult{EventLog: logBuf.Bytes()}
	for i, a := range sc.Assertions {
		switch a.Type {
		case "state":
			got := "down"
			if tr.Up(a.Node) {
				got = "up"
			}
			if got != a.Want {
				res.Violations = append(res.Violations,
					fmt.Sprintf("assertion %d: endpoint %s ends %s, want %s", i, a.Node, got, a.Want))
			}
		case "active":
			got := "primary"
			if tr.Promoted(a.Node) {
				got = "follower"
			}
			if got != a.Want {
				res.Violations = append(res.Violations,
					fmt.Sprintf("assertion %d: partition %s ends routed to %s, want %s", i, a.Node, got, a.Want))
			}
		case "events":
			n := counts[a.Kind]
			if a.Min != nil && n < *a.Min {
				res.Violations = append(res.Violations,
					fmt.Sprintf("assertion %d: %d %s events < min %d", i, n, a.Kind, *a.Min))
			}
			if a.Max != nil && n > *a.Max {
				res.Violations = append(res.Violations,
					fmt.Sprintf("assertion %d: %d %s events > max %d", i, n, a.Kind, *a.Max))
			}
		}
	}
	return res, nil
}
