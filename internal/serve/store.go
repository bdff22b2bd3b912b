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
	// drive-inspection endpoint.
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
// slot, and the two columns are indexed by it. A slot is assigned when
// the drive is first seen and never freed, so a fleet pass walks
// slots[0:n] front to back without touching the map or chasing a
// pointer per drive.
type storeShard struct {
	mu     sync.RWMutex
	m      map[uint32]int32
	slots  []scoreSlot
	recent [][]trace.DayRecord // per slot, ascending by Day, at most history entries
}

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

// add assigns the next slot to a new drive with the given (possibly
// empty) history. The caller holds sh.mu.
func (sh *storeShard) add(id uint32, model trace.Model, recent []trace.DayRecord) int32 {
	slot := int32(len(sh.slots))
	sh.m[id] = slot
	sh.slots = append(sh.slots, scoreSlot{id: id, model: model})
	sh.recent = append(sh.recent, recent)
	return slot
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
	for i := range s.shards {
		s.shards[i].m = make(map[uint32]int32)
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
		if recent := sh.recent[slot]; len(recent) > 0 {
			last := &recent[len(recent)-1]
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
		slot = sh.add(id, model, make([]trace.DayRecord, 0, 2))
		s.drives.Add(1)
	}
	if recent := sh.recent[slot]; len(recent) == s.history {
		copy(recent, recent[1:])
		recent[len(recent)-1] = rec
	} else {
		sh.recent[slot] = append(recent, rec)
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
	return DriveSnapshot{
		ID:     sh.slots[slot].id,
		Model:  sh.slots[slot].model,
		Recent: append([]trace.DayRecord(nil), sh.recent[slot]...),
	}
}

// Drives copies the full rolling state of every tracked drive, sorted
// by drive ID. Shards are drained one at a time under their read lock,
// so ingest proceeds on other shards concurrently; the copy is the unit
// the durability layer snapshots, and the sort makes two snapshots of
// the same state byte-identical.
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
// the recovery-time inverse of Drives and performs no invariant
// validation: the snapshot was validated when its records were first
// ingested.
func (s *Store) Restore(d DriveSnapshot) {
	recent := d.Recent
	if len(recent) > s.history {
		recent = recent[len(recent)-s.history:]
	}
	sh := s.shard(d.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	recent = append([]trace.DayRecord(nil), recent...)
	slot, ok := sh.m[d.ID]
	if !ok {
		slot = sh.add(d.ID, d.Model, recent)
		s.drives.Add(1)
	} else {
		s.records.Add(-int64(len(sh.recent[slot])))
		sh.slots[slot].model = d.Model
		sh.recent[slot] = recent
	}
	sh.slots[slot].invalidate()
	s.records.Add(int64(len(recent)))
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
	recent := sh.recent[slot]
	n := len(recent)
	if n == 0 || recent[n-1].Day < sinceDay {
		return units
	}
	sl := &sh.slots[slot]
	units = append(units, ScoreUnit{ID: sl.id, Model: sl.model, Last: recent[n-1]})
	if n > 1 {
		u := &units[len(units)-1]
		u.Prev = recent[n-2]
		u.HasPrev = true
	}
	return units
}
