package sparepool

// The live actuation half of the package: where Simulate replays
// historical swap demand against a candidate policy, Pool is the
// inventory a remediation control plane draws on *now*. The remedy
// engine (internal/remedy) allocates a spare when a drain completes.
//
// The actuation path is hardened rather than forgiving: allocating a
// spare twice for the same drive is an operator-visible returned error —
// never a silent no-op and never a panic — because a double actuation in
// a real fleet means two technicians were dispatched to the same slot.

import (
	"errors"
	"fmt"
	"sync"
)

// Sentinel errors for the actuation path. Callers branch on these with
// errors.Is; the wrapped forms carry the drive ID.
var (
	// ErrExhausted reports an allocation against an empty pool.
	ErrExhausted = errors.New("sparepool: no spares on hand")
	// ErrDoubleAllocate reports a second allocation for a drive that
	// already holds a spare.
	ErrDoubleAllocate = errors.New("sparepool: drive already holds a spare")
)

// PoolStats is a consistent snapshot of pool occupancy and lifetime
// activity, suitable for direct export as metrics.
type PoolStats struct {
	// Capacity is spares ever added (initial stock plus restocks).
	Capacity int
	// Free is spares on hand right now.
	Free int
	// InUse is spares currently allocated to drives.
	InUse int
	// Allocations counts successful actuations.
	Allocations uint64
	// Releases stays zero: nothing returns a spare to the pool. It and
	// DoubleReleases remain because the /v1/remedy/status reply carries
	// the whole struct.
	Releases uint64
	// Exhaustions counts allocations refused for lack of stock.
	Exhaustions uint64
	// DoubleAllocates counts refused duplicate actuations — each one is
	// a caller bug surfaced, not swallowed.
	DoubleAllocates uint64
	DoubleReleases  uint64
}

// Pool is a live spare-drive inventory. All methods are safe for
// concurrent use. Spare IDs are assigned sequentially from 1 in
// allocation order, so a single-threaded caller sees deterministic IDs.
type Pool struct {
	mu        sync.Mutex
	free      int
	nextSpare int
	allocated map[uint32]int // drive ID -> spare ID
	stats     PoolStats
}

// NewPool builds a pool holding initial spares.
func NewPool(initial int) (*Pool, error) {
	if initial < 0 {
		return nil, fmt.Errorf("sparepool: negative initial stock %d", initial)
	}
	return &Pool{
		free:      initial,
		nextSpare: 1,
		allocated: make(map[uint32]int),
		stats:     PoolStats{Capacity: initial},
	}, nil
}

// Allocate takes one spare for the given drive and returns its spare
// ID. It fails with ErrDoubleAllocate if the drive already holds a
// spare and ErrExhausted if the pool is empty; both are counted.
func (p *Pool) Allocate(driveID uint32) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if spare, ok := p.allocated[driveID]; ok {
		p.stats.DoubleAllocates++
		return 0, fmt.Errorf("%w: drive %d holds spare %d", ErrDoubleAllocate, driveID, spare)
	}
	if p.free == 0 {
		p.stats.Exhaustions++
		return 0, fmt.Errorf("%w: drive %d must wait for restock", ErrExhausted, driveID)
	}
	spare := p.nextSpare
	p.nextSpare++
	p.free--
	p.allocated[driveID] = spare
	p.stats.Allocations++
	return spare, nil
}

// Restock adds n spares to the pool (procurement arrival).
func (p *Pool) Restock(n int) error {
	if n < 0 {
		return fmt.Errorf("sparepool: negative restock %d", n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free += n
	p.stats.Capacity += n
	return nil
}

// Stats returns a consistent occupancy snapshot.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	st.Free = p.free
	st.InUse = len(p.allocated)
	return st
}
