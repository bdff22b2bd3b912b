package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ssdfail/internal/trace"
)

// DefaultShards spreads drive state over this many independently locked
// shards so concurrent ingest and fleet snapshots contend only per shard.
const DefaultShards = 64

// Store is a sharded in-memory table of per-drive rolling state: the
// two latest reports of every drive — the one scored and the one before
// it, which the bad-block delta reads — and how many reports it has
// sent. All methods are safe for concurrent use.
type Store struct {
	shards  []storeShard
	mask    uint32
	drives  atomic.Int64
	records atomic.Int64
}

// storeShard lays its drives out in slots: m maps a drive ID to its
// slot, and the columns are indexed by it. A slot is assigned when the
// drive is first seen and never freed, so a fleet pass walks slots[0:n]
// front to back without touching the map or chasing a pointer per drive.
//
// The report column holds one reportPair per slot, in blocks of
// pairBlock pairs: it grows by a block, never by copying what it holds,
// and no drive has an allocation of its own. A report is written into
// its drive's pair in place, and a snapshot or recovery reads or fills
// the column directly.
//
// gen counts changes to the score column: it moves, under mu's write
// lock, whenever a slot is marked stale (invalidate) or a sweep writes
// scores back. A fleet pass's walk of the shard is a pure function of
// the columns and the pass's arguments, so while gen stands still the
// walk's answer, kept in memo, stands too.
type storeShard struct {
	mu    sync.RWMutex
	m     map[uint32]int32
	slots []scoreSlot
	pairs []*[pairBlock]reportPair // pairs[b] holds slots b*pairBlock...
	gen   uint64
	memo  shardMemo
}

// pairBlock is how many slots one block of the report column holds:
// 16 pairs of 408 bytes are 6528, an allocation size class of its own,
// so a block wastes nothing.
const pairBlock = 16

// reportPair is one drive's entry in a shard's report column. last is
// its latest report and prev the one before; n says how many of the two
// hold a report (they fill last first), and reports counts every report
// accepted for the drive since it was first seen. The struct is
// pointer-free, so the column is never scanned by the collector.
type reportPair struct {
	prev, last trace.DayRecord
	reports    uint32
	n          uint8
}

// scoreSlot is one drive's entry in a shard's score column: who it is,
// plus the memo of its last score. A score is a pure function of the
// drive's two latest reports and the model, so it stays valid until a
// report arrives (Upsert, Restore) or the model changes.
//
// stamp is the registry ModelInfo.Version whose model produced
// score/day/age; 0 means stale, and a pass trusts only slots stamped
// with its own version. rev counts writes to the slot's reports, so a
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

// invalidate marks the slot's memo stale after its reports changed, and
// with it the shard's memo of its last walk. This is all the ingest path
// pays for either: no feature row, no score. The caller holds sh.mu.
func (sh *storeShard) invalidate(slot int32) {
	sl := &sh.slots[slot]
	sl.stamp = 0
	sl.rev++
	sh.gen++
}

// add assigns the next slot, with no reports, to a new drive. The caller
// holds sh.mu.
func (sh *storeShard) add(id uint32, model trace.Model) int32 {
	slot := int32(len(sh.slots))
	sh.m[id] = slot
	sh.slots = append(sh.slots, scoreSlot{id: id, model: model})
	if slot%pairBlock == 0 {
		sh.pairs = append(sh.pairs, new([pairBlock]reportPair))
	}
	return slot
}

// pair returns the slot's entry in the report column. The caller holds
// sh.mu.
func (sh *storeShard) pair(slot int) *reportPair {
	return &sh.pairs[slot/pairBlock][slot%pairBlock]
}

// push makes rec the slot's latest report and the one it replaces the
// previous, counts it, and reports whether the slot now retains one
// more. The caller holds sh.mu; the function is in ssdlint's hotalloc
// scope table.
func (sh *storeShard) push(slot int, rec *trace.DayRecord) bool {
	p := sh.pair(slot)
	p.prev = p.last
	p.last = *rec
	p.reports++
	if p.n < 2 {
		p.n++
		return true
	}
	return false
}

// install resets a drive's slot (assigning one to a new drive) to the
// newest two reports of recent and a report count of reports, or
// len(recent) if that is larger. The caller holds sh.mu.
func (s *Store) install(sh *storeShard, id uint32, model trace.Model, reports uint32, recent []trace.DayRecord) {
	slot, ok := sh.m[id]
	if !ok {
		slot = sh.add(id, model)
		s.drives.Add(1)
	} else {
		s.records.Add(-int64(sh.pair(int(slot)).n))
		sh.slots[slot].model = model
	}
	reports = max(reports, uint32(len(recent)))
	recent = recent[max(0, len(recent)-2):]
	p := sh.pair(int(slot))
	*p = reportPair{reports: reports, n: uint8(len(recent))}
	switch len(recent) {
	case 2:
		p.prev, p.last = recent[0], recent[1]
	case 1:
		p.last = recent[0]
	}
	sh.invalidate(slot)
	s.records.Add(int64(len(recent)))
}

// NewStore builds a store with the given shard count (rounded up to a
// power of two; <= 0 means DefaultShards). The second argument is
// ignored: every drive retains exactly its two latest reports.
func NewStore(shards, _ int) *Store {
	if shards <= 0 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	s := &Store{shards: make([]storeShard, n), mask: uint32(n - 1)}
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
// trace.Drive.Validate incrementally against the drive's latest report:
// strictly increasing day, matching day/age deltas, constant model and
// factory bad blocks, and monotone cumulative counters. A violating
// report is rejected and the state unchanged.
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
		if p := sh.pair(int(slot)); p.n > 0 {
			last := &p.last
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
	sh.invalidate(slot)
	return nil
}

// DriveSnapshot is a copy of one drive's rolling state: its latest
// reports, oldest first (at most two), and how many reports were accepted
// for it since it was first seen.
type DriveSnapshot struct {
	ID      uint32
	Model   trace.Model
	Reports uint32
	Recent  []trace.DayRecord
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
	p := sh.pair(slot)
	d := DriveSnapshot{ID: sh.slots[slot].id, Model: sh.slots[slot].model, Reports: p.reports}
	switch p.n {
	case 2:
		d.Recent = []trace.DayRecord{p.prev, p.last}
	case 1:
		d.Recent = []trace.DayRecord{p.last}
	}
	return d
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
// existing state for that drive and keeping the newest two reports of
// d.Recent. The drive's report count becomes d.Reports, or len(d.Recent)
// if that is larger. It is the inverse of Get and performs no invariant
// validation.
func (s *Store) Restore(d DriveSnapshot) {
	sh := s.shard(d.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s.install(sh, d.ID, d.Model, d.Reports, d.Recent)
}

// Len returns the number of drives currently tracked.
func (s *Store) Len() int { return int(s.drives.Load()) }

// Records returns the number of daily reports currently retained, at
// most two per drive.
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
	p := sh.pair(slot)
	if p.n == 0 || p.last.Day < sinceDay {
		return units
	}
	sl := &sh.slots[slot]
	units = append(units, ScoreUnit{ID: sl.id, Model: sl.model, Last: p.last})
	if p.n > 1 {
		u := &units[len(units)-1]
		u.Prev = p.prev
		u.HasPrev = true
	}
	return units
}
