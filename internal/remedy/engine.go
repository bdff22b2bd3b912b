package remedy

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"ssdfail/internal/sparepool"
	"ssdfail/internal/trace"
)

// Engine walks every drive of a fleet through the remediation state
// machine. It owns no clock and no RNG: each Evaluate call is one tick,
// and every decision is a pure function of the scores and failures fed
// in so far. All methods are safe for concurrent use; decisions within
// one tick are made in a deterministic order (failures first, then
// score updates by drive ID, then FIFO drain admission, then drain
// completion by drive ID).
type Engine struct {
	mu     sync.Mutex
	policy Policy
	pool   *sparepool.Pool
	log    *EventLog

	tick       uint64
	drives     map[uint32]*driveState
	registered [trace.NumModels]int // drives ever seen, per model
	draining   [trace.NumModels]int
	stats      Stats
}

// driveState is one drive's remediation bookkeeping.
type driveState struct {
	id    uint32
	model trace.Model
	state State
	score float64 // last reported score

	breaches int // consecutive evaluations at/above threshold
	clears   int // consecutive evaluations below threshold

	cordonTick uint64 // FIFO key for drain admission
	drainDone  uint64 // tick at which the drain completes
	spare      int    // spare ID once swapped

	swapBlockedLogged bool // swap_blocked emitted once per drive
	failedAfterSwap   bool // ground-truth failure arrived post-swap
}

// NewEngine builds an engine actuating against pool, logging to log
// (nil = in-memory ring only).
func NewEngine(policy Policy, pool *sparepool.Pool, log *EventLog) (*Engine, error) {
	p, err := policy.withDefaults()
	if err != nil {
		return nil, err
	}
	if pool == nil {
		return nil, errors.New("remedy: nil spare pool")
	}
	if log == nil {
		log = NewEventLog(nil)
	}
	return &Engine{
		policy: p,
		pool:   pool,
		log:    log,
		drives: make(map[uint32]*driveState),
	}, nil
}

// Register makes a drive known to the engine before any score arrives,
// entering it into its model's rate-limit denominator. Evaluate
// registers unseen drives implicitly; scenarios register the whole
// fleet up front so denominators are exact from tick one.
func (e *Engine) Register(id uint32, model trace.Model) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, err := e.lookup(id, model)
	return err
}

// lookup returns the drive's state, creating it on first sight, and
// rejects a drive whose model changed (the store upstream enforces the
// same invariant; a mismatch here means the caller mixed fleets).
func (e *Engine) lookup(id uint32, model trace.Model) (*driveState, error) {
	if int(model) >= trace.NumModels {
		return nil, fmt.Errorf("remedy: drive %d has invalid model %d", id, model)
	}
	d, ok := e.drives[id]
	if !ok {
		d = &driveState{id: id, model: model}
		e.drives[id] = d
		e.registered[model]++
		return d, nil
	}
	if d.model != model {
		return nil, fmt.Errorf("remedy: drive %d model changed from %s to %s", id, d.model, model)
	}
	return d, nil
}

// drainCap is the per-model drain slot count: floor(MaxDrainFraction x
// registered). The denominator is drives ever registered — not drives
// currently alive — so the cap can never shrink below the number of
// drains already admitted and the <= k% invariant is stable under
// failures.
func (e *Engine) drainCap(model trace.Model) int {
	return int(e.policy.MaxDrainFraction * float64(e.registered[model]))
}

// emit books an event into the log and the pass's decision list.
func (e *Engine) emit(out []Event, ev Event) []Event {
	e.log.Append(ev)
	return append(out, ev)
}

// Evaluate advances the engine by one tick: ground-truth failures are
// applied first, then every drive's score updates its hysteresis
// streaks (cordoning and uncordoning), then cordoned drives are
// admitted to drain slots FIFO by cordon time under the per-model rate
// limit, then due drains complete by allocating spares. It returns the
// decisions made this tick, in order.
//
// Drives absent from scores keep their streaks frozen (no report is
// not a clear); drives already draining, swapped, or failed only have
// their last-seen score refreshed.
func (e *Engine) Evaluate(scores []Score, failures []uint32) ([]Event, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tick++
	e.stats.Evaluations++
	var out []Event

	// Failures first: a drive that died this tick must not also be
	// cordoned or swapped this tick.
	sortedFails := append([]uint32(nil), failures...)
	sort.Slice(sortedFails, func(a, b int) bool { return sortedFails[a] < sortedFails[b] })
	for _, id := range sortedFails {
		ev, err := e.failLocked(id)
		if err != nil {
			return out, err
		}
		out = append(out, ev)
	}

	// Score updates in drive-ID order (last score wins on duplicates,
	// which the stable sort preserves).
	sorted := append([]Score(nil), scores...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].DriveID < sorted[b].DriveID })
	for i := range sorted {
		sc := &sorted[i]
		d, err := e.lookup(sc.DriveID, sc.Model)
		if err != nil {
			return out, err
		}
		d.score = sc.Score
		breach := sc.Score >= e.policy.Threshold
		switch d.state {
		case StateHealthy:
			if breach {
				d.clears = 0
				d.breaches++
				if d.breaches >= e.policy.CordonAfter {
					d.state = StateCordoned
					d.cordonTick = e.tick
					d.breaches, d.clears = 0, 0
					e.stats.Cordons++
					out = e.emit(out, Event{Tick: e.tick, Action: ActionCordon,
						Drive: d.id, Model: d.model, Score: d.score})
				}
			} else {
				d.breaches = 0
			}
		case StateCordoned:
			if breach {
				d.clears = 0
			} else {
				d.clears++
				if d.clears >= e.policy.UncordonAfter {
					d.state = StateHealthy
					d.breaches, d.clears = 0, 0
					e.stats.Uncordons++
					out = e.emit(out, Event{Tick: e.tick, Action: ActionUncordon,
						Drive: d.id, Model: d.model, Score: d.score})
				}
			}
		}
	}

	// Drain admission: cordoned drives FIFO by (cordon tick, drive ID),
	// so a long-waiting drive is never starved by a lower ID.
	var waiting []*driveState
	for _, d := range e.drives {
		if d.state == StateCordoned {
			waiting = append(waiting, d)
		}
	}
	sort.Slice(waiting, func(a, b int) bool {
		if waiting[a].cordonTick != waiting[b].cordonTick {
			return waiting[a].cordonTick < waiting[b].cordonTick
		}
		return waiting[a].id < waiting[b].id
	})
	for _, d := range waiting {
		if e.draining[d.model] < e.drainCap(d.model) {
			d.state = StateDraining
			d.drainDone = e.tick + uint64(e.policy.DrainTicks)
			e.draining[d.model]++
			e.stats.DrainStarts++
			out = e.emit(out, Event{Tick: e.tick, Action: ActionDrainStart,
				Drive: d.id, Model: d.model, Score: d.score})
		} else {
			e.stats.RateLimitedTicks++
		}
	}

	// Drain completion in drive-ID order: due drains try the pool.
	var due []*driveState
	for _, d := range e.drives {
		if d.state == StateDraining && e.tick >= d.drainDone {
			due = append(due, d)
		}
	}
	sort.Slice(due, func(a, b int) bool { return due[a].id < due[b].id })
	for _, d := range due {
		spare, err := e.pool.Allocate(d.id)
		if err != nil {
			if errors.Is(err, sparepool.ErrExhausted) {
				e.stats.PoolExhaustedTicks++
				if !d.swapBlockedLogged {
					d.swapBlockedLogged = true
					out = e.emit(out, Event{Tick: e.tick, Action: ActionSwapBlocked,
						Drive: d.id, Model: d.model, Score: d.score})
				}
				continue // keep the slot; retry next tick
			}
			return out, err
		}
		d.state = StateSwapped
		d.spare = spare
		e.draining[d.model]--
		e.stats.Swaps++
		e.stats.SwapCost += e.policy.SwapCost
		out = e.emit(out, Event{Tick: e.tick, Action: ActionSwap,
			Drive: d.id, Model: d.model, Score: d.score,
			Spare: spare, Cost: e.policy.SwapCost})
	}
	return out, nil
}

// Fail records a ground-truth failure outside an evaluation pass (the
// serve layer's POST /v1/remedy/fail); the event is stamped with the
// last completed tick. Scenario runs pass failures to Evaluate instead
// so each one lands inside its tick.
func (e *Engine) Fail(id uint32) (Event, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.failLocked(id)
}

// failLocked applies one failure: books the loss (or the save), frees
// any drain slot, and emits the fail event.
func (e *Engine) failLocked(id uint32) (Event, error) {
	d, ok := e.drives[id]
	if !ok {
		return Event{}, fmt.Errorf("remedy: failure reported for unknown drive %d", id)
	}
	if d.state == StateFailed || d.failedAfterSwap {
		return Event{}, fmt.Errorf("remedy: drive %d already failed", id)
	}
	e.stats.Failures++
	ev := Event{Tick: e.tick, Action: ActionFail, Drive: d.id, Model: d.model, Score: d.score}
	if d.state == StateSwapped {
		// The body that failed was already replaced: the prediction
		// arrived in time and the swap cost bought back a loss. The
		// drive stays in StateSwapped; the flag marks it justified.
		d.failedAfterSwap = true
		e.stats.PreventedLosses++
	} else {
		if d.state == StateDraining {
			e.draining[d.model]--
		}
		d.state = StateFailed
		e.stats.DataLosses++
		e.stats.LossCost += e.policy.LossCost
		ev.Cost = e.policy.LossCost
	}
	e.log.Append(ev)
	return ev, nil
}

// Tick returns the number of completed evaluation passes.
func (e *Engine) Tick() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tick
}

// Policy returns the engine's (normalized) operating point.
func (e *Engine) Policy() Policy {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.policy
}

// Stats returns the lifetime decision accounting.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Log exposes the engine's event log.
func (e *Engine) Log() *EventLog { return e.log }

// StateCounts returns how many drives sit in each lifecycle state.
func (e *Engine) StateCounts() [numStates]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	var c [numStates]int
	for _, d := range e.drives {
		c[d.state]++
	}
	return c
}

// ModelCounts reports, per drive model, the registered population,
// drives currently draining, and the drain cap in force.
type ModelCounts struct {
	Model      trace.Model
	Registered int
	Draining   int
	DrainCap   int
}

// ByModel returns the rate limiter's books for every model with at
// least one registered drive, in model order.
func (e *Engine) ByModel() []ModelCounts {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []ModelCounts
	for _, m := range trace.Models {
		if e.registered[m] == 0 {
			continue
		}
		out = append(out, ModelCounts{
			Model:      m,
			Registered: e.registered[m],
			Draining:   e.draining[m],
			DrainCap:   e.drainCap(m),
		})
	}
	return out
}

// DriveInfo is one drive's externally visible remediation state.
type DriveInfo struct {
	ID       uint32
	Model    trace.Model
	State    State
	Score    float64
	Breaches int
	Clears   int
	Spare    int
	// FailedAfterSwap marks a swapped drive whose ground-truth failure
	// later arrived — the label the learning loop can consume.
	FailedAfterSwap bool
}

// Drives returns every drive's state, sorted by drive ID.
func (e *Engine) Drives() []DriveInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]DriveInfo, 0, len(e.drives))
	for _, d := range e.drives {
		out = append(out, DriveInfo{
			ID: d.id, Model: d.model, State: d.state, Score: d.score,
			Breaches: d.breaches, Clears: d.clears, Spare: d.spare,
			FailedAfterSwap: d.failedAfterSwap,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Summary closes the books: realized cost versus the do-nothing
// counterfactual, and the premature-swap count — swapped drives whose
// failure never arrived (so far).
func (e *Engine) Summary() Summary {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := Summary{Stats: e.stats}
	for _, d := range e.drives {
		s.ByState[d.state]++
		if d.state == StateSwapped && !d.failedAfterSwap {
			s.PrematureSwaps++
		}
	}
	s.TotalCost = e.stats.TotalCost()
	s.DoNothingCost = float64(e.stats.Failures) * e.policy.LossCost
	s.Savings = s.DoNothingCost - s.TotalCost
	return s
}
