package cluster

import (
	"bytes"
	"strings"
	"testing"

	"ssdfail/internal/eventlog"
)

func twoPartTracker(t *testing.T, log *eventlog.Log[Event]) *Tracker {
	t.Helper()
	tr, err := NewTracker([]Partition{
		{Primary: "n1", Follower: "f1"},
		{Primary: "n2"},
	}, 3, 2, log)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTrackerHysteresis(t *testing.T) {
	tr := twoPartTracker(t, nil)
	// Two misses: still up (down_after = 3).
	tr.Observe(1, "n2", false)
	tr.Observe(2, "n2", false)
	if !tr.Up("n2") {
		t.Fatal("n2 marked down after 2 of 3 misses")
	}
	// A success resets the streak.
	tr.Observe(3, "n2", true)
	tr.Observe(4, "n2", false)
	tr.Observe(5, "n2", false)
	if !tr.Up("n2") {
		t.Fatal("n2 down though the failure streak was reset")
	}
	// Third consecutive miss: down.
	tr.Observe(6, "n2", false)
	tr.Observe(7, "n2", false)
	if tr.Up("n2") {
		t.Fatal("n2 still up after 3 consecutive misses")
	}
	// One success is not enough to come back (up_after = 2).
	tr.Observe(8, "n2", true)
	if tr.Up("n2") {
		t.Fatal("n2 up after a single good probe")
	}
	tr.Observe(9, "n2", true)
	if !tr.Up("n2") {
		t.Fatal("n2 still down after 2 consecutive good probes")
	}
}

func TestTrackerPromotionIsSticky(t *testing.T) {
	tr := twoPartTracker(t, nil)
	for tick := 1; tick <= 3; tick++ {
		tr.Observe(tick, "n1", false)
		tr.Observe(tick, "f1", true)
	}
	if !tr.Promoted("n1") || tr.Active("n1") != "f1" {
		t.Fatalf("n1 not failed over: promoted=%v active=%s", tr.Promoted("n1"), tr.Active("n1"))
	}
	// The primary recovering must NOT move traffic back: the WAL stream
	// only flows primary -> follower, so flapping back splits the brain.
	for tick := 4; tick <= 8; tick++ {
		tr.Observe(tick, "n1", true)
	}
	if !tr.Up("n1") {
		t.Fatal("n1 not marked up after recovery")
	}
	if tr.Active("n1") != "f1" {
		t.Fatalf("promotion reverted to %s; it must be sticky", tr.Active("n1"))
	}
}

func TestTrackerPromotesWhenFollowerReturnsLate(t *testing.T) {
	// The follower is known-down before the primary crosses its own
	// threshold; promotion must fire the moment the follower comes
	// back, not only on the primary's down edge.
	tr := twoPartTracker(t, nil)
	for tick := 1; tick <= 3; tick++ {
		tr.Observe(tick, "f1", false)
	}
	for tick := 2; tick <= 4; tick++ {
		tr.Observe(tick, "n1", false)
	}
	if tr.Promoted("n1") {
		t.Fatal("promoted onto a known-dead follower")
	}
	tr.Observe(5, "f1", true)
	evs := tr.Observe(6, "f1", true)
	found := false
	for _, e := range evs {
		if e.Kind == "promote" && e.Node == "n1" && e.Target == "f1" {
			found = true
		}
	}
	if !found || !tr.Promoted("n1") {
		t.Fatalf("no promotion when the follower recovered: events %v", evs)
	}
}

func TestTrackerEventLogIsCanonical(t *testing.T) {
	var sink bytes.Buffer
	tr := twoPartTracker(t, eventlog.New[Event](&sink))
	for tick := 1; tick <= 3; tick++ {
		tr.Observe(tick, "n1", false)
		tr.Observe(tick, "f1", true)
	}
	log := sink.String()
	want := "t=3 node=n1 event=down\nt=3 node=n1 event=promote target=f1\n"
	if log != want {
		t.Fatalf("event log:\n%q\nwant:\n%q", log, want)
	}
	if !strings.HasSuffix(log, "\n") {
		t.Fatal("log must end with a newline")
	}
}

func TestTrackerStatusRoles(t *testing.T) {
	tr := twoPartTracker(t, nil)
	st := tr.Status()
	if len(st) != 3 {
		t.Fatalf("status has %d endpoints, want 3", len(st))
	}
	byName := map[string]EndpointStatus{}
	for _, s := range st {
		byName[s.Name] = s
	}
	if byName["n1"].Role != "primary" || !byName["n1"].Active {
		t.Errorf("n1 status wrong: %+v", byName["n1"])
	}
	if byName["f1"].Role != "follower" || byName["f1"].Active {
		t.Errorf("f1 status wrong: %+v", byName["f1"])
	}
}
