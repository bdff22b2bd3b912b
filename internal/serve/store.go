package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ssdfail/internal/trace"
)

// Store defaults.
const (
	// DefaultShards spreads drive state over this many independently
	// locked shards so concurrent ingest and fleet snapshots contend
	// only per shard.
	DefaultShards = 64
	// DefaultHistory is how many recent daily reports each drive keeps.
	// The standard feature pipeline needs the report being scored plus
	// the previous one (for the bad-block delta); the extra slack keeps
	// a rolling window available for trailing-window features and the
	// drive-inspection endpoint. The retained reports are what is
	// resident (a stride of the shard's history column per drive, which
	// deepens to this as the drives of a block fill it) and what a
	// snapshot writes, so this is also the unit of the journal's snapshot
	// trigger.
	DefaultHistory = 8
)

// Store is a sharded in-memory table of per-drive rolling state. All
// methods are safe for concurrent use.
type Store struct {
	shards  []storeShard
	mask    uint32
	history int
	drives  atomic.Int64
	records atomic.Int64
}

// storeShard lays its drives out in slots: m maps a drive ID to its
// slot, and the columns are indexed by it. A slot is assigned when the
// drive is first seen and never freed, so a fleet pass walks slots[0:n]
// front to back without touching the map or chasing a pointer per drive.
//
// The history column is laid out in blocks of 1<<blockShift slots. Within
// a block every slot owns a stride of consecutive records (stride(i)),
// used as a ring: ring[i].n reports ascending by Day starting at
// ring[i].head. A block starts histStartStride records deep and doubles,
// up to history, when one of its slots needs more, so what is resident
// follows what the drives have reported and a block is copied at most
// log2(history) times in its life; the column as a whole grows by a
// block, never by reallocating what it holds. A report that arrives at a
// full ring overwrites the oldest in place, and a snapshot or recovery
// reads or fills the column directly; no drive has an allocation of its
// own.
type storeShard struct {
	mu         sync.RWMutex
	m          map[uint32]int32
	slots      []scoreSlot
	hist       [][]trace.DayRecord // hist[b] holds the strides of slots b<<blockShift...
	ring       []ringPos
	history    int
	blockShift uint
}

const (
	// histBlockRecords bounds one block of the history column: it holds
	// the largest power-of-two number of slots whose full-depth strides
	// fit in this many records (at least one), 64 slots or 100 KiB at
	// the default history.
	histBlockRecords = 512
	// histStartStride is the depth a block starts at: the two reports
	// scoring reads.
	histStartStride = 2
)

// ringPos locates one slot's reports inside its stride of the history
// column. head is 0 until the ring has wrapped.
type ringPos struct{ head, n uint32 }

// scoreSlot is one drive's entry in a shard's score column: who it is,
// plus the memo of its last score. A score is a pure function of the
// drive's two latest reports and the model, so it stays valid until a
// report arrives (Upsert, Restore) or the model changes.
//
// stamp is the registry ModelInfo.Version whose model produced
// score/day/age; 0 means stale, and a pass trusts only slots stamped
// with its own version. rev counts writes to the slot's history, so a
// pass that scored the slot outside the lock can tell whether what it
// read is still current before writing the result back. The struct is
// pointer-free (the column is never scanned by the collector) and two
// slots share a cache line.
type scoreSlot struct {
	score    float64
	id       uint32
	day, age int32
	stamp    uint32
	rev      uint32
	model    trace.Model
}

// invalidate marks the slot's memo stale after its history changed. This
// is all the ingest path pays for the memo: no feature row, no score.
func (sl *scoreSlot) invalidate() {
	sl.stamp = 0
	sl.rev++
}

// add assigns the next slot, with an empty history, to a new drive. The
// caller holds sh.mu.
func (sh *storeShard) add(id uint32, model trace.Model) int32 {
	slot := int32(len(sh.slots))
	sh.m[id] = slot
	sh.slots = append(sh.slots, scoreSlot{id: id, model: model})
	sh.ring = append(sh.ring, ringPos{})
	if slot&(1<<sh.blockShift-1) == 0 {
		sh.hist = append(sh.hist, make([]trace.DayRecord, histStartStride<<sh.blockShift))
	}
	return slot
}

// stride returns the slot's window of the history column, as deep as its
// block is now. The caller holds sh.mu.
func (sh *storeShard) stride(slot int) []trace.DayRecord {
	block := sh.hist[slot>>sh.blockShift]
	n := len(block) >> sh.blockShift
	at := slot & (1<<sh.blockShift - 1) * n
	return block[at : at+n]
}

// deepen doubles the strides of slot's block until they hold n <= history
// records, keeping what every slot of the block has. Rings only wrap at
// full depth, so below it a stride's reports sit at its front and move as
// they are. The caller holds sh.mu.
func (sh *storeShard) deepen(slot, n int) {
	old := sh.hist[slot>>sh.blockShift]
	from := len(old) >> sh.blockShift
	to := from
	for to < n {
		to = min(2*to, sh.history)
	}
	block := make([]trace.DayRecord, to<<sh.blockShift)
	for i := 0; i < 1<<sh.blockShift; i++ {
		copy(block[i*to:], old[i*from:(i+1)*from])
	}
	sh.hist[slot>>sh.blockShift] = block
}

// at returns the slot's i-th retained report, oldest first; i must be
// below ring[slot].n. The caller holds sh.mu.
func (sh *storeShard) at(slot, i int) *trace.DayRecord {
	k := int(sh.ring[slot].head) + i
	if k >= sh.history {
		k -= sh.history
	}
	return &sh.stride(slot)[k]
}

// runs returns the slot's retained reports, oldest first, as the two
// contiguous pieces the ring holds them in (the second is empty until
// the ring has wrapped). The caller holds sh.mu.
func (sh *storeShard) runs(slot int) (first, second []trace.DayRecord) {
	p := sh.ring[slot]
	stride := sh.stride(slot)
	if end := p.head + p.n; int(end) > sh.history {
		return stride[p.head:], stride[:int(end)-sh.history]
	}
	return stride[p.head : p.head+p.n], nil
}

// push appends rec to the slot's history, over the oldest report when
// the ring is full, and reports whether the slot now retains one more.
// The caller holds sh.mu; the function is in ssdlint's hotalloc scope
// table.
func (sh *storeShard) push(slot int, rec *trace.DayRecord) bool {
	p := &sh.ring[slot]
	if n := int(p.n); n < sh.history {
		if n == len(sh.stride(slot)) {
			sh.deepen(slot, n+1)
		}
		sh.stride(slot)[n] = *rec // not wrapped yet: the reports sit at the front
		p.n++
		return true
	}
	*sh.at(slot, 0) = *rec // the oldest report's place becomes the newest's
	if p.head++; int(p.head) == sh.history {
		p.head = 0
	}
	return false
}

// install resets a drive's slot (assigning one to a new drive) to a
// history of n <= history reports, which the caller fills in through the
// returned window, oldest first. The caller holds sh.mu.
func (s *Store) install(sh *storeShard, id uint32, model trace.Model, n int) []trace.DayRecord {
	slot, ok := sh.m[id]
	if !ok {
		slot = sh.add(id, model)
		s.drives.Add(1)
	} else {
		s.records.Add(-int64(sh.ring[slot].n))
		sh.slots[slot].model = model
	}
	sh.ring[slot] = ringPos{n: uint32(n)}
	sh.slots[slot].invalidate()
	s.records.Add(int64(n))
	if n > len(sh.stride(int(slot))) {
		sh.deepen(int(slot), n)
	}
	return sh.stride(int(slot))[:n]
}

// NewStore builds a store with the given shard count (rounded up to a
// power of two; <= 0 means DefaultShards) and per-drive history depth
// (<= 1 means DefaultHistory).
func NewStore(shards, history int) *Store {
	if shards <= 0 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	if history <= 1 {
		history = DefaultHistory
	}
	s := &Store{shards: make([]storeShard, n), mask: uint32(n - 1), history: history}
	shift := uint(0)
	for history<<(shift+1) <= histBlockRecords {
		shift++
	}
	for i := range s.shards {
		s.shards[i].m = make(map[uint32]int32)
		s.shards[i].history = history
		s.shards[i].blockShift = shift
	}
	return s
}

// shard maps a drive ID to its shard with a multiplicative hash, so
// sequentially assigned IDs still spread across shards.
func (s *Store) shard(id uint32) *storeShard {
	return &s.shards[(id*2654435761)&s.mask]
}

// Upsert appends one daily report to a drive's rolling state, creating
// the drive on first sight. It enforces the per-drive invariants of
// trace.Drive.Validate incrementally against the drive's latest
// retained report: strictly increasing day, matching day/age deltas,
// constant model and factory bad blocks, and monotone cumulative
// counters. A violating report is rejected and the state unchanged.
func (s *Store) Upsert(id uint32, model trace.Model, rec trace.DayRecord) error {
	return s.UpsertCommit(id, model, rec, nil)
}

// UpsertCommit is Upsert with a commit hook: after the record passes
// validation but before it mutates any state, commit (when non-nil) is
// invoked while the shard lock is still held. A commit error aborts the
// upsert with the store unchanged. The durability layer journals the
// record in the hook, so the write-ahead log's append order matches the
// store's apply order per drive and a record is never applied without
// first being logged.
func (s *Store) UpsertCommit(id uint32, model trace.Model, rec trace.DayRecord, commit func() error) error {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	slot, ok := sh.m[id]
	if ok {
		if have := sh.slots[slot].model; have != model {
			return fmt.Errorf("serve: drive %d model changed from %s to %s", id, have, model)
		}
		if n := int(sh.ring[slot].n); n > 0 {
			last := sh.at(int(slot), n-1)
			if rec.Day <= last.Day {
				return fmt.Errorf("serve: drive %d day %d not after last ingested day %d", id, rec.Day, last.Day)
			}
			if rec.Day-last.Day != rec.Age-last.Age {
				return fmt.Errorf("serve: drive %d day delta %d != age delta %d",
					id, rec.Day-last.Day, rec.Age-last.Age)
			}
			if rec.FactoryBadBlocks != last.FactoryBadBlocks {
				return fmt.Errorf("serve: drive %d factory bad blocks changed", id)
			}
			if rec.GrownBadBlocks < last.GrownBadBlocks {
				return fmt.Errorf("serve: drive %d grown bad blocks decreased", id)
			}
			if rec.PECycles < last.PECycles {
				return fmt.Errorf("serve: drive %d P/E cycles decreased", id)
			}
			if rec.CumReads < last.CumReads || rec.CumWrites < last.CumWrites || rec.CumErases < last.CumErases {
				return fmt.Errorf("serve: drive %d cumulative op counter decreased", id)
			}
			for k := 0; k < trace.NumErrorKinds; k++ {
				if rec.CumErrors[k] < last.CumErrors[k] {
					return fmt.Errorf("serve: drive %d cumulative %s count decreased", id, trace.ErrorKind(k))
				}
			}
		}
	}
	if commit != nil {
		if err := commit(); err != nil {
			return err
		}
	}
	if !ok {
		slot = sh.add(id, model)
		s.drives.Add(1)
	}
	if sh.push(int(slot), &rec) {
		s.records.Add(1)
	}
	sh.slots[slot].invalidate()
	return nil
}

// DriveSnapshot is a copy of one drive's rolling state.
type DriveSnapshot struct {
	ID     uint32
	Model  trace.Model
	Recent []trace.DayRecord
}

// Get returns a copy of the drive's state.
func (s *Store) Get(id uint32) (DriveSnapshot, bool) {
	sh := s.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	slot, ok := sh.m[id]
	if !ok {
		return DriveSnapshot{}, false
	}
	return sh.snapshot(int(slot)), true
}

// snapshot copies one slot's rolling state. The caller holds sh.mu.
func (sh *storeShard) snapshot(slot int) DriveSnapshot {
	first, second := sh.runs(slot)
	return DriveSnapshot{
		ID:     sh.slots[slot].id,
		Model:  sh.slots[slot].model,
		Recent: append(append([]trace.DayRecord(nil), first...), second...),
	}
}

// Drives copies the full rolling state of every tracked drive, sorted
// by drive ID. Shards are drained one at a time under their read lock,
// so ingest proceeds on other shards concurrently. It is the inspection
// and test view of the store; the durability layer snapshots the columns
// themselves (appendSnapshotSections).
func (s *Store) Drives() []DriveSnapshot {
	out := make([]DriveSnapshot, 0, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for slot := range sh.slots {
			out = append(out, sh.snapshot(slot))
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Restore installs one drive's rolling state wholesale, replacing any
// existing state for that drive and trimming to the history cap. It is
// the inverse of Get and performs no invariant validation.
func (s *Store) Restore(d DriveSnapshot) {
	recent := d.Recent
	if len(recent) > s.history {
		recent = recent[len(recent)-s.history:]
	}
	sh := s.shard(d.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	copy(s.install(sh, d.ID, d.Model, len(recent)), recent)
}

// Len returns the number of drives currently tracked.
func (s *Store) Len() int { return int(s.drives.Load()) }

// Records returns the number of daily reports currently retained.
func (s *Store) Records() int { return int(s.records.Load()) }

// ScoreUnit is the scoring input for one drive: its latest report plus
// the previous one, copied out of the store so scoring never holds a
// shard lock.
type ScoreUnit struct {
	ID         uint32
	Model      trace.Model
	Last, Prev trace.DayRecord
	HasPrev    bool
}

// ScoreUnits snapshots the whole fleet for batch scoring. Drives whose
// latest report is older than sinceDay are skipped (sinceDay <= 0 keeps
// everything) — the paper's watchlist only considers drives still
// reporting. Shards are drained one at a time under their read lock, so
// ingest proceeds on other shards concurrently. The handlers score
// through Scorer.Sweep, which copies out only drives whose score slot is
// stale; this is the from-scratch snapshot it is tested and benchmarked
// against.
func (s *Store) ScoreUnits(sinceDay int32) []ScoreUnit {
	units := make([]ScoreUnit, 0, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for slot := range sh.slots {
			units = sh.appendUnit(units, slot, sinceDay)
		}
		sh.mu.RUnlock()
	}
	return units
}

// appendUnit appends slot's scoring input to units, or returns units
// unchanged when the drive has no report yet or its latest one is older
// than sinceDay. The caller holds sh.mu.
func (sh *storeShard) appendUnit(units []ScoreUnit, slot int, sinceDay int32) []ScoreUnit {
	n := int(sh.ring[slot].n)
	if n == 0 {
		return units
	}
	last := sh.at(slot, n-1)
	if last.Day < sinceDay {
		return units
	}
	sl := &sh.slots[slot]
	units = append(units, ScoreUnit{ID: sl.id, Model: sl.model, Last: *last})
	if n > 1 {
		u := &units[len(units)-1]
		u.Prev = *sh.at(slot, n-2)
		u.HasPrev = true
	}
	return units
}
