package serve

import (
	"sync"
	"time"
)

// Fleet passes are admitted against a budget of sweepSlotsPerSecond
// score slots swept per second: a pass over n drives takes a slice of
// the schedule n/sweepSlotsPerSecond long (0.58 ms at 35k drives, 17 µs
// at 1k), and the next pass is due when that slice ends. A caller whose
// slice has already begun — any poller slower than the budget, or one
// that fell behind because it, the server or the host stalled — starts
// at once, and the slices it missed stay its to use, so what a poller
// that asks again the moment it is answered gets swept per second is set
// by the clock, not by how fast the host runs that second, and not by
// the size of the fleet. Only such a poller ever waits, and then for
// less than a slice per pass in flight. A schedule more than passCatchUp
// behind is dropped and restarts from now: an idle server owes nobody a
// burst.
//
// Why pace at all: a warm pass costs ~0.1 ms at 35k drives, so a
// closed-loop poller would otherwise take most of a core to re-rank a
// fleet that changes a few dozen times a second, at a rate that swings
// 10–20 % with the host. Why this budget: it is about the lowest that
// keeps ssdbench's fleet_scan client busy enough for its own open-loop
// generator to stay on time (an idle Go process wakes its timers up to
// 1 ms late), and the unpaced rate on a 2-vCPU host is 2–2.5× above it.
const (
	sweepSlotsPerSecond = 60_000_000
	passCatchUp         = 250 * time.Millisecond
)

// passPacer hands out the schedule's slices.
type passPacer struct {
	mu   sync.Mutex
	next time.Time // when the next slice begins
}

// wait takes the next slice, sized for a pass over slots drives, and
// returns when it has begun.
func (p *passPacer) wait(slots int) {
	slice := time.Duration(slots) * time.Second / sweepSlotsPerSecond
	now := time.Now() //ssdlint:allow clockpath the pacer sleeps real time, so it must reckon in real time; a test's frozen clock would park every pass
	p.mu.Lock()
	if p.next.Before(now.Add(-passCatchUp)) {
		p.next = now
	}
	begin := p.next
	p.next = begin.Add(slice)
	p.mu.Unlock()
	if d := begin.Sub(now); d > 0 {
		sleepFine(d)
	}
}
