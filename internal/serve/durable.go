package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
	// SnapshotEvery writes a store snapshot (and prunes covered WAL
	// segments) every this many accepted records. 0 means the default
	// 4096; negative disables automatic snapshots.
	SnapshotEvery int
	// AsyncSnapshots runs automatic snapshots on a background goroutine
	// (single-flight). Synchronous snapshots keep tests deterministic.
	AsyncSnapshots bool
}

// DefaultSnapshotEvery is the automatic snapshot cadence in accepted
// records.
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

	sinceSnap    atomic.Int64
	snapshotting atomic.Bool
	wg           sync.WaitGroup
	closeMu      sync.Mutex // guards closed and, with it, wg.Add vs Close
	closed       bool

	snapshotFailures atomic.Uint64
	pruned           atomic.Uint64

	bufs sync.Pool // *[]byte scratch for payload encoding
}

// OpenJournal recovers fleet state from opt.Dir into store (snapshot
// first, then the WAL tail, truncating at the first torn or corrupt
// frame) and returns a journal ready for ingest. The store should be
// empty; records already present are treated like snapshot contents.
func OpenJournal(store *Store, opt JournalOptions) (*Journal, error) {
	if opt.SnapshotEvery == 0 {
		opt.SnapshotEvery = DefaultSnapshotEvery
	}
	if store.history > math.MaxUint16 {
		// The snapshot format stores a per-drive record count as u16;
		// refusing here is better than silently truncating a recovered
		// drive's history to less than the live store retains.
		return nil, fmt.Errorf("serve: history %d exceeds the snapshot format's per-drive limit %d",
			store.history, math.MaxUint16)
	}
	j := &Journal{store: store, opt: opt}
	j.bufs.New = func() any { b := make([]byte, 0, walRecordBinarySize); return &b }
	walOpt := wal.Options{
		Dir:          opt.Dir,
		FS:           opt.FS,
		SegmentBytes: opt.SegmentBytes,
		SyncEvery:    opt.SyncEvery,
		SyncInterval: opt.SyncInterval,
	}

	payload, snapLSN, found, err := wal.LoadSnapshot(walOpt)
	if err != nil {
		if !errors.Is(err, wal.ErrSnapshotCorrupt) {
			return nil, err
		}
		// A corrupt snapshot is survivable telemetry loss, not a boot
		// failure: fall back to replaying whatever the WAL still holds.
		j.rec.SnapshotCorrupt = true
		snapLSN = 0
	} else if found {
		drives, derr := decodeStoreSnapshot(payload)
		if derr != nil {
			j.rec.SnapshotCorrupt = true
			snapLSN = 0
		} else {
			for i := range drives {
				store.Restore(drives[i])
			}
			j.rec.SnapshotLSN = snapLSN
			j.rec.SnapshotDrives = len(drives)
		}
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
		id, model, rec, derr := decodeWALRecordBinary(frame)
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
	payload := appendWALRecordBinary((*bufp)[:0], id, model, &rec)
	err := j.UpsertPayload(id, model, rec, payload)
	*bufp = payload[:0]
	j.bufs.Put(bufp)
	return err
}

// UpsertPayload is Upsert for callers that already hold the record's
// canonical WAL encoding — the binary ingest path, whose accepted frame
// payloads are appended to the log verbatim. payload must equal
// appendWALRecordBinary(nil, id, model, &rec); it is not retained after
// the call returns. The fast path allocates nothing.
func (j *Journal) UpsertPayload(id uint32, model trace.Model, rec trace.DayRecord, payload []byte) error {
	err := j.store.UpsertCommit(id, model, rec, func() error {
		if _, werr := j.log.Append(payload); werr != nil {
			return fmt.Errorf("%w: %w", ErrJournal, werr)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if j.opt.SnapshotEvery > 0 && j.sinceSnap.Add(1) >= int64(j.opt.SnapshotEvery) {
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

// Snapshot writes a point-in-time snapshot of the store and prunes WAL
// segments it fully covers. Safe to call concurrently with ingest: the
// recorded LSN is read before the store copy, so every record the copy
// might miss is replayed from the WAL on recovery.
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
	drives := j.store.Drives()
	payload := encodeStoreSnapshot(drives)
	if err := j.log.WriteSnapshot(lsn, payload); err != nil {
		return err
	}
	j.sinceSnap.Store(0)
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

// Store snapshot payload: version u32, drive count u32, then per drive
// the ID, model, retained-record count (u16), and fixed-width records.
// OpenJournal rejects histories above the u16 limit, so the count never
// silently truncates a drive's retained window.
const storeSnapshotVersion = 1

func encodeStoreSnapshot(drives []DriveSnapshot) []byte {
	size := 8
	for i := range drives {
		n := len(drives[i].Recent)
		if n > math.MaxUint16 {
			n = math.MaxUint16
		}
		size += 7 + n*dayRecordBinarySize
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, storeSnapshotVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(drives)))
	for i := range drives {
		d := &drives[i]
		recent := d.Recent
		if len(recent) > math.MaxUint16 {
			// Unreachable while OpenJournal enforces the history limit;
			// kept so a future format bug degrades to a shorter window
			// instead of a corrupt payload.
			recent = recent[len(recent)-math.MaxUint16:]
		}
		buf = binary.LittleEndian.AppendUint32(buf, d.ID)
		buf = append(buf, byte(d.Model))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(recent)))
		for r := range recent {
			buf = appendDayRecordBinary(buf, &recent[r])
		}
	}
	return buf
}

func decodeStoreSnapshot(b []byte) ([]DriveSnapshot, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("serve: snapshot header truncated")
	}
	if v := binary.LittleEndian.Uint32(b); v != storeSnapshotVersion {
		return nil, fmt.Errorf("serve: unsupported snapshot version %d", v)
	}
	n := binary.LittleEndian.Uint32(b[4:])
	b = b[8:]
	// Cap the preallocation so a hostile count cannot balloon memory.
	alloc := int(n)
	if alloc > 1<<16 {
		alloc = 1 << 16
	}
	drives := make([]DriveSnapshot, 0, alloc)
	for i := uint32(0); i < n; i++ {
		if len(b) < 7 {
			return nil, fmt.Errorf("serve: snapshot drive %d header truncated", i)
		}
		d := DriveSnapshot{ID: binary.LittleEndian.Uint32(b), Model: trace.Model(b[4])}
		if int(d.Model) >= trace.NumModels {
			return nil, fmt.Errorf("serve: snapshot drive %d has unknown model %d", i, b[4])
		}
		nrec := int(binary.LittleEndian.Uint16(b[5:]))
		b = b[7:]
		d.Recent = make([]trace.DayRecord, nrec)
		for r := 0; r < nrec; r++ {
			var err error
			d.Recent[r], b, err = decodeDayRecordBinary(b)
			if err != nil {
				return nil, fmt.Errorf("serve: snapshot drive %d: %w", i, err)
			}
		}
		drives = append(drives, d)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("serve: %d trailing bytes after snapshot", len(b))
	}
	return drives, nil
}
