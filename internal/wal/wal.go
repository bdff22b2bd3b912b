// Package wal implements an append-only, segment-rotated write-ahead
// log with per-frame CRC32C checksums, plus atomic point-in-time
// snapshots, so the fleet-scoring daemon's in-memory state survives
// crashes. Recovery replays the newest snapshot and then the WAL tail;
// a torn or corrupt frame truncates the log at that point instead of
// failing the boot — exactly the lossy-telemetry posture the paper's
// field pipelines require.
//
// On-disk layout (all integers little-endian):
//
//	wal-<first LSN, 20 digits>.seg   frames: len u32 | crc32c u32 | payload
//	snapshot.snap                    "SSDWSNP2" | lsn u64 | sections | trailer (snapshot.go)
//
// Log sequence numbers (LSNs) start at 1 and are implicit: frame i of a
// segment has LSN firstLSN+i. Payloads are opaque to this package and
// must be non-empty (a zero length marks a torn frame, so runs of
// zeroes from preallocated or zero-extended files never parse as
// records).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ssdfail/internal/faultfs"
)

const (
	frameHeaderSize = 8
	segPrefix       = "wal-"
	segSuffix       = ".seg"

	// DefaultSegmentBytes is the rotation threshold.
	DefaultSegmentBytes = 8 << 20
	// DefaultSyncEvery is the default fsync policy: flush to stable
	// storage every this many appends (and on rotation and close).
	DefaultSyncEvery = 64
	// SyncNever disables policy-driven fsyncs; only rotation, Close,
	// and explicit Sync calls flush.
	SyncNever = -1
	// DefaultSyncInterval bounds how long an accepted record can sit
	// buffered and un-fsynced under a SyncEvery > 1 policy: the
	// background syncer also fires this long after the last activity
	// whenever dirty bytes exist, so trickle traffic is made durable
	// within ~this latency instead of waiting for a full batch.
	DefaultSyncInterval = 100 * time.Millisecond
	// DefaultMaxRecordBytes caps one frame's payload; larger lengths in
	// a frame header are treated as corruption.
	DefaultMaxRecordBytes = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("wal: log closed")
	// ErrBroken marks a log poisoned by an earlier write error: the
	// tail may hold a torn frame, so further appends are refused until
	// the log is reopened (which truncates the tear).
	ErrBroken = errors.New("wal: log broken by earlier write error")
	// ErrTooLarge is returned for payloads above MaxRecordBytes.
	ErrTooLarge = errors.New("wal: record exceeds maximum size")
)

// Options configures a log.
type Options struct {
	// Dir holds the segments and snapshot.
	Dir string
	// FS is the filesystem; nil means the real one.
	FS faultfs.FS
	// SegmentBytes rotates segments above this size (0 = default).
	SegmentBytes int64
	// SyncEvery is the fsync policy: 1 fsyncs every append, n > 1 every
	// n appends, SyncNever only on rotation/close, 0 = default.
	SyncEvery int
	// SyncInterval bounds the durability latency of the SyncEvery > 1
	// group-commit path: when dirty bytes exist, the background syncer
	// flushes and fsyncs at least this often even if no sync boundary
	// is reached. 0 = DefaultSyncInterval; negative disables the timer
	// (batches then wait for a boundary, Sync, rotation, or Close).
	// It has no effect with SyncEvery == 1 (nothing is ever deferred)
	// or SyncNever (explicit-sync-only is that policy's contract).
	SyncInterval time.Duration
	// MaxRecordBytes caps payload size (0 = default).
	MaxRecordBytes int
	// MinLSN floors recovery: Open guarantees the next append receives
	// an LSN strictly greater than MinLSN. Callers pass the LSN of the
	// snapshot they recovered from, so that when the durable WAL tail
	// ends before the snapshot's coverage (a crash that lost buffered
	// frames after the snapshot was published), records accepted after
	// recovery can never reuse LSNs the snapshot claims to cover — a
	// reuse would make the next boot's replay filter silently drop
	// them. When the recovered tail is behind MinLSN every surviving
	// record is covered by that snapshot, so the stale segments are
	// deleted and a fresh segment starts at MinLSN+1.
	MinLSN uint64
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = faultfs.OS()
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.SyncEvery == 0 {
		o.SyncEvery = DefaultSyncEvery
	}
	if o.SyncInterval == 0 {
		o.SyncInterval = DefaultSyncInterval
	}
	if o.MaxRecordBytes <= 0 {
		o.MaxRecordBytes = DefaultMaxRecordBytes
	}
	return o
}

// RecoveryStats summarizes what Open found on disk.
type RecoveryStats struct {
	// Records is how many intact frames were replayed.
	Records uint64
	// Truncations counts recovery truncations: 1 when a torn or
	// corrupt frame cut the log short, 0 on a clean log.
	Truncations int
	// TruncatedBytes is how many bytes were dropped by the truncation.
	TruncatedBytes int64
	// SegmentsDropped counts whole segments discarded because they
	// followed a corrupt frame or broke LSN continuity.
	SegmentsDropped int
	// Segments is how many segments remain after recovery.
	Segments int
}

// Stats are cumulative operation counts for a live log.
type Stats struct {
	Appends   uint64
	Fsyncs    uint64
	Rotations uint64
	Snapshots uint64
	// SnapshotBytes and SnapshotTime total the size of, and the time
	// spent writing, the snapshots counted above.
	SnapshotBytes uint64
	SnapshotTime  time.Duration
}

// flushThreshold bounds how many buffered frame bytes accumulate
// before they are written through to the segment file even when no
// sync boundary has been reached. While the syncer goroutine has a
// group commit in flight (its write and fsync run with l.mu released),
// appends keep buffering past the threshold up to maxBufferBytes — the
// hard cap at which an append waits out the commit's write and then
// writes through itself, beside the fsync, instead of letting a slow
// disk grow the buffer without bound.
const (
	flushThreshold = 64 << 10
	maxBufferBytes = 8 << 20
)

// Log is an open write-ahead log positioned after its last intact
// frame. All methods are safe for concurrent use.
//
// Appends accumulate in an in-process buffer and are written through at
// sync boundaries, rotation, close, or the flush threshold — one write
// syscall then covers a whole batch of frames. With SyncEvery == 1
// every append is flushed and fsynced before it returns; with larger
// policies the batch is written and fsynced by a background syncer
// goroutine (group commit) that takes the buffer, leaves appends a spare
// one, and does its I/O with l.mu released, so appends never wait on the
// disk. Either way a record is only guaranteed durable once its covering
// fsync completes, which is the contract Options.SyncEvery documents.
//
// Frames reach the file in LSN order because only one party writes it at
// a time: while writing is set the syncer's batch is on its way to l.f,
// and every other flush site first waits in settleLocked — those that
// fsync or close the file until the commit's fsync is over too. That wait
// releases l.mu, so whatever a caller checked before it must be checked
// again after it.
type Log struct {
	opt Options

	mu        sync.Mutex
	syncCond  *sync.Cond // signals that the syncer handed l.f back; tied to mu
	f         faultfs.File
	buf       []byte // appended frames not yet written to f
	spare     []byte // the buffer appends get while the syncer writes the other one
	segStart  uint64 // first LSN of the active segment
	segBytes  int64  // includes buffered bytes
	next      uint64 // LSN the next append receives
	sinceSync int
	dirty     bool  // bytes exist that no completed fsync covers
	flushed   int64 // total bytes written through to segment files
	writing   bool  // the syncer is writing a batch to l.f outside l.mu: nobody else may write
	syncBusy  bool  // the syncer has a group commit (that write, then an fsync) in flight outside l.mu
	closed    bool
	err       error // sticky write error

	syncCh     chan struct{} // coalesced async fsync requests
	syncerDone chan struct{}

	// index is the sparse LSN → (segment, byte offset) map the tail
	// reader seeks by: one entry per indexStride frames of a segment,
	// counted from its first, so every segment that holds a frame has an
	// entry for its start. Ascending by LSN; index[0].lsn is the oldest
	// retained LSN. It is rebuilt by Open's scan rather than persisted:
	// the scan reads every frame anyway, and a second on-disk structure
	// would need its own crash-consistency story.
	index []indexEntry

	snapMu  sync.Mutex    // serializes WriteSnapshot
	snapLSN atomic.Uint64 // what the published snapshot covers; written under snapMu

	appends   atomic.Uint64
	fsyncs    atomic.Uint64
	rotations atomic.Uint64
	snapshots atomic.Uint64
	snapBytes atomic.Uint64
	snapNanos atomic.Int64
}

// indexStride is how many frames apart index entries sit: a tail read
// starts at most indexStride-1 frames before the position asked for.
const indexStride = 64

// indexEntry locates one frame: lsn is at byte off of segment seg.
type indexEntry struct {
	lsn uint64
	seg uint64 // first LSN of the segment, which names its file
	off int64
}

func segName(first uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, first, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(segPrefix):len(name)-len(segSuffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listSegments returns the segment first-LSNs in dir, ascending.
func listSegments(fsys faultfs.FS, dir string) ([]uint64, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var firsts []uint64
	for _, e := range entries {
		if first, ok := parseSegName(e.Name()); ok && !e.IsDir() {
			firsts = append(firsts, first)
		}
	}
	sort.Slice(firsts, func(a, b int) bool { return firsts[a] < firsts[b] })
	return firsts, nil
}

// Open recovers the log in opt.Dir, invoking replay for every intact
// frame in LSN order, and returns a log positioned for appending. The
// first torn or corrupt frame truncates the log there: the broken
// frame, the rest of its segment, and any later segments are dropped.
// The payload passed to replay is only valid during the call.
func Open(opt Options, replay func(lsn uint64, payload []byte)) (*Log, RecoveryStats, error) {
	opt = opt.withDefaults()
	var stats RecoveryStats
	if err := opt.FS.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, stats, fmt.Errorf("wal: mkdir %s: %w", opt.Dir, err)
	}
	firsts, err := listSegments(opt.FS, opt.Dir)
	if err != nil {
		return nil, stats, fmt.Errorf("wal: listing segments: %w", err)
	}

	l := &Log{opt: opt, next: 1, segStart: 1}
	l.snapLSN.Store(opt.MinLSN)
	if len(firsts) > 0 {
		l.next = firsts[0]
		l.segStart = firsts[0]
	}
	corrupt := false
	var data []byte // one segment at a time, reused
	for _, first := range firsts {
		path := filepath.Join(opt.Dir, segName(first))
		if corrupt || first != l.next {
			// Unreachable records: either a corrupt frame cut the
			// sequence earlier, or this segment's first LSN does not
			// continue it (a pruning gap mid-sequence). Keeping them
			// would break the accepted-prefix guarantee.
			if err := opt.FS.Remove(path); err != nil {
				return nil, stats, fmt.Errorf("wal: dropping unreachable segment: %w", err)
			}
			stats.SegmentsDropped++
			continue
		}
		if data, err = readAll(opt.FS, path, data); err != nil {
			return nil, stats, fmt.Errorf("wal: reading segment: %w", err)
		}
		off := 0
		for {
			n, payload := parseFrame(data[off:], opt.MaxRecordBytes)
			if n == 0 {
				break
			}
			if (l.next-first)%indexStride == 0 {
				l.index = append(l.index, indexEntry{lsn: l.next, seg: first, off: int64(off)})
			}
			replay(l.next, payload)
			stats.Records++
			l.next++
			off += n
		}
		if off < len(data) {
			// Torn or corrupt frame: cut here, drop the rest.
			if err := opt.FS.Truncate(path, int64(off)); err != nil {
				return nil, stats, fmt.Errorf("wal: truncating torn tail: %w", err)
			}
			stats.Truncations++
			stats.TruncatedBytes += int64(len(data) - off)
			corrupt = true
		}
		// The last segment scanned is the one appends continue in: every
		// later one is dropped above as unreachable.
		l.segStart = first
		l.segBytes = int64(off)
	}

	if l.next <= opt.MinLSN {
		// The durable tail ends before the caller's snapshot coverage:
		// every record still on disk is ≤ MinLSN and therefore inside
		// the snapshot. Drop the stale segments and restart numbering
		// just past the snapshot, so post-recovery appends can never
		// collide with LSNs the snapshot already claims.
		stale, err := listSegments(opt.FS, opt.Dir)
		if err != nil {
			return nil, stats, fmt.Errorf("wal: listing stale segments: %w", err)
		}
		for _, first := range stale {
			if err := opt.FS.Remove(filepath.Join(opt.Dir, segName(first))); err != nil {
				return nil, stats, fmt.Errorf("wal: dropping snapshot-covered segment: %w", err)
			}
			stats.SegmentsDropped++
		}
		if len(stale) > 0 {
			if err := opt.FS.SyncDir(opt.Dir); err != nil {
				return nil, stats, fmt.Errorf("wal: syncing dir: %w", err)
			}
		}
		l.next = opt.MinLSN + 1
		l.segStart = l.next
		l.segBytes = 0
		l.index = nil
	}

	path := filepath.Join(opt.Dir, segName(l.segStart))
	f, err := opt.FS.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, stats, fmt.Errorf("wal: opening active segment: %w", err)
	}
	l.f = f
	l.syncCond = sync.NewCond(&l.mu)
	if opt.SyncEvery > 1 {
		l.syncCh = make(chan struct{}, 1)
		l.syncerDone = make(chan struct{})
		go l.syncer()
	}
	remaining, err := listSegments(opt.FS, opt.Dir)
	if err == nil {
		stats.Segments = len(remaining)
	}
	return l, stats, nil
}

// parseFrame returns the total frame size and payload of the frame at
// the start of data, or (0, nil) when data holds no complete valid
// frame (torn tail, zero length, oversized length, or CRC mismatch).
func parseFrame(data []byte, maxRecord int) (int, []byte) {
	if len(data) < frameHeaderSize {
		return 0, nil
	}
	length := binary.LittleEndian.Uint32(data[0:4])
	if length == 0 || int(length) > maxRecord {
		return 0, nil
	}
	end := frameHeaderSize + int(length)
	if end > len(data) {
		return 0, nil
	}
	payload := data[frameHeaderSize:end]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[4:8]) {
		return 0, nil
	}
	return end, payload
}

// readAll reads the file into buf, grown to the file's size when it is
// smaller, and returns the bytes read. Recovery passes each segment the
// last one's buffer: read by doubling instead, a log's worth of segments
// cost six times their size in discarded copies.
func readAll(fsys faultfs.FS, path string, buf []byte) ([]byte, error) {
	info, err := fsys.Stat(path)
	if err != nil {
		return nil, err
	}
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close() //ssdlint:allow droppederr read-only descriptor; Close cannot lose data we have not already read
	if int64(cap(buf)) < info.Size() {
		buf = make([]byte, info.Size())
	}
	n, err := io.ReadFull(f, buf[:info.Size()])
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = nil // shorter than Stat said: what is there is what there is
	}
	return buf[:n], err
}

// Append writes one record and returns its LSN. Depending on the fsync
// policy the record may not be durable until the next policy fsync, an
// explicit Sync, or Close. After a write error the log is poisoned
// (ErrBroken) because the tail may be torn; reopen to recover.
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) == 0 {
		return 0, errors.New("wal: empty payload")
	}
	if len(payload) > l.opt.MaxRecordBytes {
		return 0, fmt.Errorf("%w: %d > %d", ErrTooLarge, len(payload), l.opt.MaxRecordBytes)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, fmt.Errorf("%w: %w", ErrBroken, l.err)
	}
	frame := int64(frameHeaderSize + len(payload))
	if l.segmentFull(frame) {
		if err := l.settleLocked(true); err != nil {
			return 0, err
		}
		// Another append may have rotated during the wait.
		if l.segmentFull(frame) {
			if err := l.rotateLocked(); err != nil {
				l.err = err
				return 0, err
			}
		}
	}
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	l.buf = append(l.buf, hdr[:]...)
	l.buf = append(l.buf, payload...)
	lsn := l.next
	if (lsn-l.segStart)%indexStride == 0 {
		l.index = append(l.index, indexEntry{lsn: lsn, seg: l.segStart, off: l.segBytes})
	}
	l.next++
	l.segBytes += frame
	l.sinceSync++
	l.dirty = true
	l.appends.Add(1)
	switch {
	case l.opt.SyncEvery == 1:
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	case l.opt.SyncEvery > 1 && l.sinceSync >= l.opt.SyncEvery:
		// Group commit: hand the whole batch — write and fsync — to the
		// syncer goroutine so appends never issue a syscall here.
		// Durability is still only promised once the policy fsync
		// completes.
		l.sinceSync = 0
		select {
		case l.syncCh <- struct{}{}:
		default: // a request is already queued; it will cover this batch
		}
	case len(l.buf) >= flushThreshold && (!l.syncBusy || len(l.buf) >= maxBufferBytes):
		for l.writing {
			l.syncCond.Wait()
		}
		// The frame was buffered before the wait: a Close that ran
		// meanwhile has written it, and the syncer may have taken it.
		if l.closed {
			return lsn, nil
		}
		if l.err != nil {
			return 0, fmt.Errorf("%w: %w", ErrBroken, l.err)
		}
		if err := l.flushLocked(); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// segmentFull reports whether a frame of this size belongs in the next
// segment.
func (l *Log) segmentFull(frame int64) bool {
	return l.segBytes > 0 && l.segBytes+frame > l.opt.SegmentBytes
}

// settleLocked waits until the syncer's write is on the file — with
// commit, until its whole group commit is over, which a caller that
// fsyncs, closes or replaces l.f needs — and reports whether the log can
// still be written. The wait releases l.mu, so this is where a flush site
// validates the log, not before.
func (l *Log) settleLocked(commit bool) error {
	for l.writing || (commit && l.syncBusy) {
		l.syncCond.Wait()
	}
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return fmt.Errorf("%w: %w", ErrBroken, l.err)
	}
	return nil
}

// flushLocked writes buffered frames through to the active segment. The
// caller has waited out the syncer's write (settleLocked).
func (l *Log) flushLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	n, err := l.f.Write(l.buf)
	l.flushed += int64(n)
	if err != nil {
		l.err = err
		return fmt.Errorf("wal: append: %w", err)
	}
	l.buf = l.buf[:0]
	return nil
}

// syncer issues policy group commits off the append path: it takes the
// append buffer, leaves the spare in its place, and writes and fsyncs
// with l.mu released, so a commit stalls no appender for a disk write.
// Coalesced requests mean a slow disk degrades to fewer, larger group
// commits rather than a queue of fsyncs. A SyncInterval ticker
// additionally bounds how long dirty bytes can sit buffered under trickle
// traffic that never fills a batch.
func (l *Log) syncer() {
	defer close(l.syncerDone)
	var tickC <-chan time.Time
	if l.opt.SyncInterval > 0 {
		t := time.NewTicker(l.opt.SyncInterval)
		defer t.Stop()
		tickC = t.C
	}
	for {
		select {
		case _, ok := <-l.syncCh:
			if !ok {
				return
			}
		case <-tickC:
		}
		l.mu.Lock()
		if l.closed || l.err != nil || !l.dirty {
			l.mu.Unlock()
			continue
		}
		// Nobody else sets writing, and every other writer of l.f waits
		// for it to clear, so until then the file's tail and the batch are
		// this goroutine's alone.
		batch, f := l.buf, l.f
		l.buf, l.spare = l.spare[:0], nil
		l.writing, l.syncBusy = true, true
		l.mu.Unlock()

		var n int
		var err error
		if len(batch) > 0 {
			n, err = f.Write(batch)
		}

		// The write is on the file: readers and the buffer-full fallback
		// may go on beside the fsync.
		l.mu.Lock()
		l.spare = batch[:0]
		l.writing = false
		l.flushed += int64(n)
		mark := l.flushed
		l.syncCond.Broadcast()
		l.mu.Unlock()

		if err == nil {
			err = f.Sync()
		}

		l.mu.Lock()
		l.syncBusy = false
		if err != nil {
			if l.err == nil {
				l.err = err
			}
		} else {
			l.fsyncs.Add(1)
			// Only bytes written before the fsync started are covered.
			if l.flushed == mark && len(l.buf) == 0 {
				l.dirty = false
			}
		}
		l.syncCond.Broadcast()
		l.mu.Unlock()
	}
}

// rotateLocked syncs and closes the active segment and starts a new one
// whose name carries the next LSN. The caller has waited out the syncer's
// whole commit (settleLocked).
//
//ssdlint:allow lockheld the -Locked suffix is the contract: rotation runs under l.mu so no append can land in a segment mid-swap
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: closing segment: %w", err)
	}
	path := filepath.Join(l.opt.Dir, segName(l.next))
	f, err := l.opt.FS.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: opening segment: %w", err)
	}
	if err := l.opt.FS.SyncDir(l.opt.Dir); err != nil {
		f.Close() //ssdlint:allow droppederr error-path cleanup of an empty just-opened segment; the dir fsync failure is returned
		return fmt.Errorf("wal: syncing dir: %w", err)
	}
	l.f = f
	l.segStart = l.next
	l.segBytes = 0
	l.rotations.Add(1)
	return nil
}

// syncLocked makes everything appended so far durable: it flushes the
// buffer and fsyncs inline. The caller has waited out the syncer's whole
// commit (settleLocked; with SyncEvery == 1 there is no syncer).
//
//ssdlint:allow lockheld fsync-under-l.mu is the durability point by design; SyncEvery batching and the async syncer bound how often appends pay it
func (l *Log) syncLocked() error {
	if err := l.flushLocked(); err != nil {
		return err
	}
	if !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.err = err
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.dirty = false
	l.sinceSync = 0
	l.fsyncs.Add(1)
	return nil
}

// Flush writes buffered frames through to the active segment file
// without forcing an fsync. It makes every accepted record visible to
// same-filesystem readers at memory cost rather than disk cost;
// durability guarantees are unchanged and still governed by the
// SyncEvery policy.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.settleLocked(false); err != nil {
		return err
	}
	return l.flushLocked()
}

// Sync flushes appended records to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.settleLocked(true); err != nil {
		return err
	}
	return l.syncLocked()
}

// Close syncs and closes the active segment and stops the syncer.
func (l *Log) Close() error {
	l.mu.Lock()
	err := l.settleLocked(true)
	if errors.Is(err, ErrClosed) {
		l.mu.Unlock()
		return ErrClosed
	}
	if err == nil {
		err = l.syncLocked()
	}
	l.closed = true
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: close: %w", cerr)
	}
	l.mu.Unlock()
	if l.syncCh != nil {
		close(l.syncCh)
		<-l.syncerDone
	}
	return err
}

// LastLSN returns the LSN of the most recent append (0 when empty).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// SnapshotLSN returns the LSN the snapshot in Options.Dir covers: the
// one the last WriteSnapshot published, or until then Options.MinLSN,
// the snapshot the caller recovered from. LastLSN minus this is how many
// records a recovery would replay.
func (l *Log) SnapshotLSN() uint64 { return l.snapLSN.Load() }

// Stats returns cumulative operation counts.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:   l.appends.Load(),
		Fsyncs:    l.fsyncs.Load(),
		Rotations: l.rotations.Load(),
		Snapshots: l.snapshots.Load(),

		SnapshotBytes: l.snapBytes.Load(),
		SnapshotTime:  time.Duration(l.snapNanos.Load()),
	}
}

// Prune removes segments whose every record is below beforeLSN (i.e.
// fully covered by a snapshot). The active segment is never removed.
// It returns how many segments were deleted.
//
// The index is trimmed before the files go: a tail reader that looked a
// doomed segment up and then finds it gone looks again, and the second
// answer is ErrPruned rather than a missing file.
func (l *Log) Prune(beforeLSN uint64) (int, error) {
	l.mu.Lock()
	segStart := l.segStart
	l.mu.Unlock()
	firsts, err := listSegments(l.opt.FS, l.opt.Dir)
	if err != nil {
		return 0, fmt.Errorf("wal: prune: %w", err)
	}
	// Segments are contiguous, so what qualifies is a prefix of them.
	doomed := 0
	for doomed+1 < len(firsts) && firsts[doomed] != segStart && firsts[doomed+1] <= beforeLSN {
		doomed++
	}
	if doomed == 0 {
		return 0, nil
	}
	l.mu.Lock()
	keep := 0
	for keep < len(l.index) && l.index[keep].lsn < firsts[doomed] {
		keep++
	}
	l.index = append(l.index[:0], l.index[keep:]...)
	l.mu.Unlock()
	removed := 0
	for _, first := range firsts[:doomed] {
		if err := l.opt.FS.Remove(filepath.Join(l.opt.Dir, segName(first))); err != nil {
			return removed, fmt.Errorf("wal: prune: %w", err)
		}
		removed++
	}
	if err := l.opt.FS.SyncDir(l.opt.Dir); err != nil {
		return removed, fmt.Errorf("wal: prune: %w", err)
	}
	return removed, nil
}
