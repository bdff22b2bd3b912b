package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ssdfail/internal/faultfs"
	"ssdfail/internal/trace"
	"ssdfail/internal/wal"
)

// ErrJournal marks an upsert that passed validation but could not be
// made durable (WAL append or fsync failed). Handlers map it to 503:
// the record was not applied and the client should retry against a
// recovered daemon.
var ErrJournal = errors.New("serve: journal write failed")

// JournalOptions configures the durability layer.
type JournalOptions struct {
	// Dir holds WAL segments and snapshots.
	Dir string
	// FS is the filesystem (nil = real). Tests inject faults here.
	FS faultfs.FS
	// SegmentBytes and SyncEvery configure the WAL (0 = wal defaults;
	// SyncEvery wal.SyncNever disables policy fsyncs).
	SegmentBytes int64
	SyncEvery    int
	// SyncInterval bounds the durability latency of group commit
	// (SyncEvery > 1): dirty WAL bytes are fsynced at least this often.
	// 0 = wal.DefaultSyncInterval; negative disables the timer.
	SyncInterval time.Duration
	// SnapshotEvery is the floor of the automatic snapshot trigger: a
	// snapshot (which also prunes the WAL segments it covers) starts once
	// the log holds at least max(SnapshotEvery, Store.Records()) records
	// past the last snapshot — when replaying the tail would cost as
	// much as loading the state. 0 means the default 4096; negative
	// disables automatic snapshots.
	SnapshotEvery int
	// AsyncSnapshots runs automatic snapshots on a background goroutine
	// (single-flight). Synchronous snapshots keep tests deterministic.
	AsyncSnapshots bool
}

// DefaultSnapshotEvery is the smallest WAL tail, in accepted records,
// that starts an automatic snapshot.
const DefaultSnapshotEvery = 4096

// RecoveryInfo reports what OpenJournal reconstructed at boot.
type RecoveryInfo struct {
	// SnapshotLSN is the WAL position the loaded snapshot covers (0 =
	// no snapshot).
	SnapshotLSN uint64
	// SnapshotDrives is how many drives the snapshot restored.
	SnapshotDrives int
	// SnapshotCorrupt is set when a snapshot existed but failed
	// validation; recovery continued from the WAL alone.
	SnapshotCorrupt bool
	// Replayed counts WAL records applied to the store.
	Replayed uint64
	// SkippedCovered counts WAL records skipped because the snapshot
	// already covered their LSN.
	SkippedCovered uint64
	// Duplicates counts replayed records the store rejected as already
	// present — the benign overlap between a snapshot raced against
	// concurrent ingest and the WAL tail.
	Duplicates uint64
	// Malformed counts frames whose payload failed to decode despite an
	// intact checksum (version skew); they are dropped.
	Malformed uint64
	// Truncations and TruncatedBytes surface recovery truncation of
	// torn or corrupt WAL tails.
	Truncations    int
	TruncatedBytes int64
	// SegmentsDropped counts whole WAL segments discarded during
	// recovery.
	SegmentsDropped int
}

// Journal pairs a Store with a write-ahead log and snapshots so the
// fleet state survives crashes. The ingest path validates a record
// under the shard lock, appends it to the WAL, and only then applies
// it, so WAL order matches apply order and an unlogged record is never
// visible.
type Journal struct {
	store *Store
	log   *wal.Log
	opt   JournalOptions
	rec   RecoveryInfo

	snapshotting atomic.Bool
	wg           sync.WaitGroup
	closeMu      sync.Mutex // guards closed and, with it, wg.Add vs Close
	closed       bool

	snapshotFailures atomic.Uint64
	pruned           atomic.Uint64

	bufs sync.Pool // *[]byte scratch for payload encoding

	// snapBuf is the section buffer of the snapshot being written, kept
	// from one snapshot to the next. Only the body Snapshot hands to
	// wal.WriteSnapshot touches it, and the log runs one body at a time.
	snapBuf []byte
}

// OpenJournal recovers fleet state from opt.Dir into store (snapshot
// first, then the WAL tail, truncating at the first torn or corrupt
// frame) and returns a journal ready for ingest. The store should be
// empty; records already present are treated like snapshot contents.
func OpenJournal(store *Store, opt JournalOptions) (*Journal, error) {
	if opt.SnapshotEvery == 0 {
		opt.SnapshotEvery = DefaultSnapshotEvery
	}
	j := &Journal{store: store, opt: opt}
	j.bufs.New = func() any { b := make([]byte, 0, trace.WALRecordSize); return &b }
	walOpt := wal.Options{
		Dir:          opt.Dir,
		FS:           opt.FS,
		SegmentBytes: opt.SegmentBytes,
		SyncEvery:    opt.SyncEvery,
		SyncInterval: opt.SyncInterval,
	}

	// The snapshot is read twice through a section-sized buffer: once to
	// check every section and the trailer, so that nothing of a corrupt
	// snapshot reaches the store, and once to load the sections straight
	// into the store's columns.
	snapLSN, found, err := wal.LoadSnapshot(walOpt, func(section []byte) error {
		_, err := scanSnapshotSection(section, nil)
		return err
	})
	switch {
	case errors.Is(err, wal.ErrSnapshotCorrupt):
		// A corrupt snapshot is survivable telemetry loss, not a boot
		// failure: fall back to replaying whatever the WAL still holds.
		j.rec.SnapshotCorrupt = true
	case err != nil:
		return nil, err
	case found:
		_, _, err := wal.LoadSnapshot(walOpt, func(section []byte) error {
			n, err := scanSnapshotSection(section, store.loadDrive)
			j.rec.SnapshotDrives += n
			return err
		})
		if err != nil {
			return nil, err
		}
		j.rec.SnapshotLSN = snapLSN
	}

	// Floor WAL recovery at the snapshot: if a crash lost the WAL tail
	// the snapshot had already covered, records accepted after recovery
	// must not reuse covered LSNs (the replay filter below would drop
	// them on the next boot).
	walOpt.MinLSN = snapLSN
	log, wstats, err := wal.Open(walOpt, func(lsn uint64, frame []byte) {
		if lsn <= snapLSN {
			j.rec.SkippedCovered++
			return
		}
		id, model, rec, derr := trace.DecodeWALRecord(frame)
		if derr != nil {
			j.rec.Malformed++
			return
		}
		if uerr := store.Upsert(id, model, rec); uerr != nil {
			j.rec.Duplicates++
		} else {
			j.rec.Replayed++
		}
	})
	if err != nil {
		return nil, err
	}
	j.log = log
	j.rec.Truncations = wstats.Truncations
	j.rec.TruncatedBytes = wstats.TruncatedBytes
	j.rec.SegmentsDropped = wstats.SegmentsDropped
	return j, nil
}

// Recovery returns what boot-time recovery reconstructed.
func (j *Journal) Recovery() RecoveryInfo { return j.rec }

// Store returns the journaled store.
func (j *Journal) Store() *Store { return j.store }

// WALStats returns the underlying log's operation counts.
func (j *Journal) WALStats() wal.Stats { return j.log.Stats() }

// SnapshotFailures counts snapshots that could not be written.
func (j *Journal) SnapshotFailures() uint64 { return j.snapshotFailures.Load() }

// PrunedSegments counts WAL segments removed after snapshots.
func (j *Journal) PrunedSegments() uint64 { return j.pruned.Load() }

// LastLSN returns the most recently appended WAL position.
func (j *Journal) LastLSN() uint64 { return j.log.LastLSN() }

// SnapshotLSN returns the WAL position the current snapshot covers (0 =
// no snapshot).
func (j *Journal) SnapshotLSN() uint64 { return j.log.SnapshotLSN() }

// Tail returns how many WAL records a restart would replay now: the
// records appended since the current snapshot.
func (j *Journal) Tail() uint64 { return j.tailAt(j.log.LastLSN()) }

// tailAt is the length of the WAL tail that ends at lsn. A snapshot
// taken after lsn was appended covers it: the tail is then empty.
func (j *Journal) tailAt(lsn uint64) uint64 {
	if snap := j.log.SnapshotLSN(); lsn > snap {
		return lsn - snap
	}
	return 0
}

// StreamFrom invokes fn for every intact WAL frame with LSN >= from,
// in order, returning the position a follower should resume from. Every
// acknowledged record is visible to the stream immediately (the log
// writes its buffer through first, without an fsync). The payload is
// only valid during the call to fn. A from position older than the
// retained segments returns an error wrapping wal.ErrPruned.
func (j *Journal) StreamFrom(from uint64, fn func(lsn uint64, payload []byte) error) (uint64, error) {
	return j.log.ReadFrom(from, fn)
}

// Upsert validates, journals, and applies one daily report. Validation
// failures return the store's error with nothing logged; a WAL failure
// returns an error wrapping ErrJournal with the store unchanged.
func (j *Journal) Upsert(id uint32, model trace.Model, rec trace.DayRecord) error {
	bufp := j.bufs.Get().(*[]byte)
	payload := trace.AppendWALRecord((*bufp)[:0], id, model, &rec)
	err := j.UpsertPayload(id, model, rec, payload)
	*bufp = payload[:0]
	j.bufs.Put(bufp)
	return err
}

// UpsertPayload is Upsert for callers that already hold the record's
// canonical WAL encoding — the binary ingest path, whose accepted frame
// payloads are appended to the log verbatim. payload must equal
// trace.AppendWALRecord(nil, id, model, &rec); it is not retained after
// the call returns. The fast path allocates nothing.
func (j *Journal) UpsertPayload(id uint32, model trace.Model, rec trace.DayRecord, payload []byte) error {
	var lsn uint64
	err := j.store.UpsertCommit(id, model, rec, func() error {
		var werr error
		if lsn, werr = j.log.Append(payload); werr != nil {
			return fmt.Errorf("%w: %w", ErrJournal, werr)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Snapshot once replaying the tail would cost as much as loading the
	// state: every record is then written once to the log and, amortised,
	// at most once to a snapshot, however large the store is.
	if every := j.opt.SnapshotEvery; every > 0 && j.tailAt(lsn) >= uint64(max(every, j.store.Records())) {
		j.maybeSnapshot()
	}
	return nil
}

// maybeSnapshot starts one snapshot, skipping if one is in flight.
func (j *Journal) maybeSnapshot() {
	if !j.snapshotting.CompareAndSwap(false, true) {
		return
	}
	run := func() {
		defer j.snapshotting.Store(false)
		if err := j.Snapshot(); err != nil {
			j.snapshotFailures.Add(1)
		}
	}
	if j.opt.AsyncSnapshots {
		// wg.Add must not race Close's wg.Wait: an Upsert finishing just
		// as the journal closes would otherwise start a snapshot against
		// a closed log.
		j.closeMu.Lock()
		if j.closed {
			j.closeMu.Unlock()
			j.snapshotting.Store(false)
			return
		}
		j.wg.Add(1)
		j.closeMu.Unlock()
		go func() { defer j.wg.Done(); run() }()
	} else {
		run()
	}
}

// Snapshot writes a snapshot of the store and prunes WAL segments it
// fully covers. Safe to call concurrently with ingest: the recorded LSN
// is read before the store is, so every record the snapshot might miss is
// replayed from the WAL on recovery. The store is streamed a section at a
// time out of its columns, so a snapshot costs one section buffer however
// large the fleet is.
func (j *Journal) Snapshot() error {
	lsn := j.log.LastLSN()
	// Make everything the snapshot will claim to cover durable before
	// the snapshot is published. Without this, a group-commit policy can
	// leave the durable WAL tail behind the snapshot LSN; after a crash
	// the log would hand out LSNs the snapshot already covers, and the
	// next boot's replay filter would silently drop those records.
	if err := j.log.Sync(); err != nil {
		return err
	}
	err := j.log.WriteSnapshot(lsn, func(w *wal.SnapshotWriter) error {
		var err error
		j.snapBuf, err = j.store.appendSnapshotSections(j.snapBuf, w.Section)
		return err
	})
	if err != nil {
		return err
	}
	if n, err := j.log.Prune(lsn + 1); err == nil {
		j.pruned.Add(uint64(n))
	}
	return nil
}

// Sync flushes the WAL to stable storage.
func (j *Journal) Sync() error { return j.log.Sync() }

// Close waits for an in-flight snapshot, then syncs and closes the WAL.
func (j *Journal) Close() error {
	j.closeMu.Lock()
	j.closed = true
	j.closeMu.Unlock()
	j.wg.Wait()
	return j.log.Close()
}

// A snapshot section's payload: version u32, drive count u32, then per
// drive a head and fixed-width records, oldest first. Version 2, which
// the store writes, has the head ID u32, model u8, reports accepted u32
// and records retained u16 (at most 2). Version 1 had ID, model and
// record count u16, and held up to the writer's history depth of records;
// the loader keeps its newest two and counts the records present. A
// section holds a run of one shard's slots, cut off at
// snapshotSectionBytes; a file written before snapshots had sections is
// one version-1 payload holding the whole fleet.
const (
	storeSnapshotVersion = 2
	snapshotSectionHead  = 8
	snapshotSectionBytes = 256 << 10
	snapshotV1DriveHead  = 7
	snapshotV2DriveHead  = 11
)

// appendSnapshotSections encodes the store section by section into buf
// (reused for each) and passes every section to emit. Each section is
// encoded under its shard's read lock, held for no longer than that, so
// ingest proceeds on the other shards and between sections. Slots are
// never freed or reordered, so resuming a shard at the slot the last
// section stopped at visits every drive once. It returns buf for the next
// snapshot.
func (s *Store) appendSnapshotSections(buf []byte, emit func([]byte) error) ([]byte, error) {
	for i := range s.shards {
		sh := &s.shards[i]
		for slot, done := 0, false; !done; {
			sh.mu.RLock()
			buf, slot = sh.appendSnapshotSection(buf[:0], slot)
			done = slot == len(sh.slots)
			sh.mu.RUnlock()
			if len(buf) > snapshotSectionHead {
				if err := emit(buf); err != nil {
					return buf, err
				}
			}
		}
	}
	return buf, nil
}

// appendSnapshotSection appends one version-2 section holding the shard's
// drives from slot on, until the section reaches snapshotSectionBytes or
// the shard ends, and returns the slot the next section starts at. The
// caller holds sh.mu; the function is in ssdlint's hotalloc scope table
// (a snapshot allocates per section buffer growth, never per drive).
func (sh *storeShard) appendSnapshotSection(buf []byte, slot int) ([]byte, int) {
	head := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, storeSnapshotVersion)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // the drive count, patched below
	drives := uint32(0)
	for ; slot < len(sh.slots) && len(buf)-head < snapshotSectionBytes; slot++ {
		sl, p := &sh.slots[slot], sh.pair(slot)
		buf = binary.LittleEndian.AppendUint32(buf, sl.id)
		buf = append(buf, byte(sl.model))
		buf = binary.LittleEndian.AppendUint32(buf, p.reports)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(p.n))
		if p.n == 2 {
			buf = trace.AppendDayRecord(buf, &p.prev)
		}
		if p.n > 0 {
			buf = trace.AppendDayRecord(buf, &p.last)
		}
		drives++
	}
	binary.LittleEndian.PutUint32(buf[head+4:], drives)
	return buf, slot
}

// scanSnapshotSection checks one section payload of either version front
// to back — version, drive count against the bytes present, models,
// record counts, record flags — and, when drive is not nil, hands it
// every drive's ID, model, accepted-report count and encoded records (a
// multiple of trace.DayRecordSize bytes, oldest first) as it goes. A
// version-1 drive's count is the number of its records. It returns the
// number of drives. Nothing is allocated, so a hostile count costs
// nothing: the walk ends where the bytes do. An error wraps
// wal.ErrSnapshotCorrupt.
func scanSnapshotSection(b []byte, drive func(id uint32, model trace.Model, reports uint32, recs []byte)) (int, error) {
	corrupt := func(format string, args ...any) (int, error) {
		return 0, fmt.Errorf("%w: serve: %s", wal.ErrSnapshotCorrupt, fmt.Sprintf(format, args...))
	}
	if len(b) < snapshotSectionHead {
		return corrupt("snapshot header truncated")
	}
	version := binary.LittleEndian.Uint32(b)
	if version != 1 && version != storeSnapshotVersion {
		return corrupt("unsupported snapshot version %d", version)
	}
	headLen := snapshotV1DriveHead
	if version == storeSnapshotVersion {
		headLen = snapshotV2DriveHead
	}
	n := binary.LittleEndian.Uint32(b[4:])
	b = b[snapshotSectionHead:]
	for i := uint32(0); i < n; i++ {
		if len(b) < headLen {
			return corrupt("snapshot drive %d header truncated", i)
		}
		id, model := binary.LittleEndian.Uint32(b), trace.Model(b[4])
		if int(model) >= trace.NumModels {
			return corrupt("snapshot drive %d has unknown model %d", i, b[4])
		}
		count := int(binary.LittleEndian.Uint16(b[5:]))
		reports := uint32(count)
		if version == storeSnapshotVersion {
			reports, count = binary.LittleEndian.Uint32(b[5:]), int(binary.LittleEndian.Uint16(b[9:]))
			if count > 2 || uint32(count) > reports {
				return corrupt("snapshot drive %d retains %d records of %d reports", i, count, reports)
			}
		}
		size := count * trace.DayRecordSize
		b = b[headLen:]
		if len(b) < size {
			return corrupt("snapshot drive %d records truncated: %d of %d bytes", i, len(b), size)
		}
		for r := trace.DayRecordSize - 1; r < size; r += trace.DayRecordSize {
			if b[r]&^3 != 0 {
				return corrupt("snapshot drive %d has unknown record flags %#x", i, b[r])
			}
		}
		if drive != nil {
			drive(id, model, reports, b[:size])
		}
		b = b[size:]
	}
	if len(b) != 0 {
		return corrupt("%d trailing bytes after snapshot", len(b))
	}
	return int(n), nil
}

// loadDrive installs one drive from its snapshot encoding, decoding its
// newest two records straight into the drive's pair. Like Restore it
// replaces any existing state and validates nothing: the records were
// validated when they were first ingested.
func (s *Store) loadDrive(id uint32, model trace.Model, reports uint32, recs []byte) {
	var recent [2]trace.DayRecord
	n := min(len(recs)/trace.DayRecordSize, 2)
	recs = recs[len(recs)-n*trace.DayRecordSize:]
	for i := 0; i < n; i++ {
		trace.DecodeDayRecord(recs[i*trace.DayRecordSize:], &recent[i])
	}
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s.install(sh, id, model, reports, recent[:n])
}
