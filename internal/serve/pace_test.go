package serve

import (
	"testing"
	"time"
)

// A pass over testFleet drives takes a 0.5 ms slice of the schedule.
const (
	testFleet = sweepSlotsPerSecond / 2000
	testSlice = time.Second / 2000
)

// passesFor calls wait back to back for d and returns how many passes
// were admitted.
func passesFor(p *passPacer, d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
		p.wait(testFleet)
	}
	return n
}

// TestPacerHoldsClosedLoopToBudget pins the two sides of the schedule:
// a caller that asks again at once is never given more than the budget,
// and — timers being what they are on a loaded test host — not much
// less either.
func TestPacerHoldsClosedLoopToBudget(t *testing.T) {
	var p passPacer
	const window = 300 * time.Millisecond
	slices := int(window / testSlice)
	got := passesFor(&p, window)
	// The pass admitted as the window closes is the +1.
	if got > slices+1 {
		t.Fatalf("%d passes in %v, the budget allows %d", got, window, slices+1)
	}
	if got < slices*8/10 {
		t.Fatalf("%d passes in %v, want about %d", got, window, slices)
	}
}

// TestPacerSlicesFollowFleetSize: the budget is in slots, so a pass over
// a tenth of the fleet is admitted ten times as often.
func TestPacerSlicesFollowFleetSize(t *testing.T) {
	var p passPacer
	const n = 1000
	begin := time.Now()
	for i := 0; i < n; i++ {
		p.wait(testFleet / 10)
	}
	took := time.Since(begin)
	// No sooner than the budget allows, and well inside what as many
	// passes over the whole fleet would take.
	if want := (n - 1) * testSlice / 10; took < want || took > 5*want {
		t.Fatalf("%d passes over a tenth of the fleet took %v, want about %v", n, took, want)
	}
}

// TestPacerKeepsMissedSlicesForAStalledCaller: a stall shorter than
// passCatchUp costs nothing in the long run — the missed slices are
// admitted back to back, without a wait.
func TestPacerKeepsMissedSlicesForAStalledCaller(t *testing.T) {
	var p passPacer
	p.wait(testFleet)
	const stall = 60 * time.Millisecond
	time.Sleep(stall)
	missed := int(stall/testSlice) - 1
	begin := time.Now()
	for i := 0; i < missed; i++ {
		p.wait(testFleet)
	}
	if took := time.Since(begin); took > testSlice*time.Duration(missed)/2 {
		t.Fatalf("%d missed slices took %v to admit, want no waiting", missed, took)
	}
}

// TestPacerOwesNoBurstAfterIdle: past passCatchUp the schedule restarts,
// so the first pass is immediate and the ones behind it are spaced.
func TestPacerOwesNoBurstAfterIdle(t *testing.T) {
	var p passPacer
	p.wait(testFleet)
	time.Sleep(passCatchUp + 20*time.Millisecond)
	begin := time.Now()
	p.wait(testFleet)
	if took := time.Since(begin); took > testSlice/2 {
		t.Fatalf("a lone pass after idle waited %v", took)
	}
	const n = 50
	for i := 0; i < n; i++ {
		p.wait(testFleet)
	}
	if took := time.Since(begin); took < n*testSlice {
		t.Fatalf("%d passes after idle took %v, want at least %v", n+1, took, n*testSlice)
	}
}
