package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"ssdfail/internal/faultfs"
	"ssdfail/internal/trace"
)

// ErrPruned reports that a requested stream position precedes the
// oldest retained segment: a snapshot has pruned the frames away, so a
// reader that far behind cannot catch up from the log alone.
var ErrPruned = errors.New("wal: requested LSN precedes retained segments")

// tailBufBytes is the tail reader's buffer: a read costs what it
// delivers, rounded up to this, however full the segment is. A frame
// larger than the buffer gets a private one for that read. The buffers
// are pooled: allocating and clearing 64 KiB per pull cost four times
// what the pull's system calls did.
const tailBufBytes = 64 << 10

var tailBufs = sync.Pool{New: func() any { b := make([]byte, tailBufBytes); return &b }}

// ReadFrom streams the log, invoking fn for every intact frame with
// from <= LSN <= the last LSN appended when the call began, in LSN
// order, and returns the next LSN a subsequent call should resume from
// (last delivered + 1, or from when nothing qualified). It is the
// replication wire reader: buffered appends are written through first,
// so every accepted record is eligible; every frame's length and CRC
// are verified before delivery; and the first torn or corrupt frame
// ends the stream silently — the same truncation posture Open takes at
// recovery.
//
// A read costs what it delivers, not what the log holds: a position
// past the last LSN is answered without touching a file, and any other
// starts at the indexed frame nearest at or before it (fewer than
// indexStride frames early) and reads forward through a bounded buffer.
// A segment that ends is followed by the one the next LSN names, so the
// frames delivered are contiguous by construction; if that file is not
// there the stream ends, as it does at recovery's unreachable-segment
// rule.
//
// A from of 0 reads from the beginning. When from is older than the
// oldest retained segment the error is ErrPruned (wrapped with the
// retained floor); the reader must bootstrap from a snapshot instead.
// An fn error aborts the stream and is returned verbatim. The payload
// passed to fn is only valid during the call.
func (l *Log) ReadFrom(from uint64, fn func(lsn uint64, payload []byte) error) (uint64, error) {
	if from == 0 {
		from = 1
	}
	at, last, err := l.tailStart(from)
	if err != nil || from > last {
		return from, err
	}
	f, err := l.openSegment(at.seg)
	if errors.Is(err, fs.ErrNotExist) {
		// The segment went between the look-up and the open. Prune trims
		// the index before it removes a file, so looking again tells a
		// position that has just been pruned from a file that is lost.
		if at, last, err = l.tailStart(from); err != nil || from > last {
			return from, err
		}
		f, err = l.openSegment(at.seg)
	}
	if err != nil {
		return from, fmt.Errorf("wal: reading %s: %w", segName(at.seg), err)
	}
	bufp := tailBufs.Get().(*[]byte)
	defer tailBufs.Put(bufp)
	r := segReader{f: f, off: at.off, buf: *bufp, maxRecord: l.opt.MaxRecordBytes}
	//ssdlint:allow droppederr read-only descriptor; Close cannot lose data we have not already read
	defer func() { r.f.Close() }()

	next := from
	for lsn := at.lsn; lsn <= last; lsn++ {
		payload, err := r.frame()
		if err == io.EOF {
			// This segment ended cleanly, so the frame is the first of the
			// segment its LSN names.
			nf, oerr := l.openSegment(lsn)
			if errors.Is(oerr, fs.ErrNotExist) {
				return next, nil
			}
			if oerr != nil {
				return next, fmt.Errorf("wal: reading %s: %w", segName(lsn), oerr)
			}
			r.f.Close() //ssdlint:allow droppederr read-only descriptor; Close cannot lose data we have not already read
			r.f, r.off, r.r, r.w = nf, 0, 0, 0
			payload, err = r.frame()
		}
		if err == io.EOF || err == errTornFrame {
			return next, nil
		}
		if err != nil {
			return next, fmt.Errorf("wal: reading segment: %w", err)
		}
		if lsn < from {
			continue
		}
		if err := fn(lsn, payload); err != nil {
			return next, err
		}
		next = lsn + 1
	}
	return next, nil
}

// tailStart writes buffered frames through and looks from up: where to
// start reading and the last LSN the read may deliver. When from is
// past that LSN there is nothing to read and nothing is flushed.
//
// While the syncer is writing a batch outside l.mu the frames up to last
// are not all in the file yet, so the look-up waits for that write (not
// for the fsync after it) — and starts over afterwards, because the wait
// releases l.mu: the log may have been closed, broken, appended to or
// pruned meanwhile.
func (l *Log) tailStart(from uint64) (indexEntry, uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.closed {
			return indexEntry{}, 0, ErrClosed
		}
		if l.err != nil {
			return indexEntry{}, 0, fmt.Errorf("%w: %w", ErrBroken, l.err)
		}
		last := l.next - 1
		if from > last {
			return indexEntry{}, last, nil
		}
		floor := l.segStart // a log with no frames retains only its empty active segment
		if len(l.index) > 0 {
			floor = l.index[0].lsn
		}
		if from < floor {
			return indexEntry{}, last, fmt.Errorf("%w: want %d, oldest retained %d", ErrPruned, from, floor)
		}
		if l.writing {
			l.syncCond.Wait()
			continue
		}
		if err := l.flushLocked(); err != nil {
			return indexEntry{}, last, err
		}
		// floor <= from <= last: the index holds floor's entry at least.
		i := sort.Search(len(l.index), func(i int) bool { return l.index[i].lsn > from })
		return l.index[i-1], last, nil
	}
}

func (l *Log) openSegment(first uint64) (faultfs.File, error) {
	return l.opt.FS.OpenFile(filepath.Join(l.opt.Dir, segName(first)), os.O_RDONLY, 0)
}

// errTornFrame marks a frame that is cut short, has an impossible
// length, or fails its checksum.
var errTornFrame = errors.New("wal: torn or corrupt frame")

// segReader reads one segment's frames in order from a byte offset
// through a bounded buffer.
type segReader struct {
	f         faultfs.File
	off       int64  // file offset of the next byte to read into buf
	buf       []byte // a pooled tailBufBytes, or a private one grown for a larger frame
	r, w      int    // buf[r:w] is read and not yet consumed
	maxRecord int
}

// frame returns the next frame's payload, valid until the next call:
// io.EOF when the segment ends exactly where a frame would begin,
// errTornFrame for a frame that cannot be trusted, else a read error.
func (s *segReader) frame() ([]byte, error) {
	if err := s.fill(frameHeaderSize); err != nil {
		if err == io.EOF && s.w > s.r {
			return nil, errTornFrame
		}
		return nil, err
	}
	length := binary.LittleEndian.Uint32(s.buf[s.r:])
	if length == 0 || int(length) > s.maxRecord {
		return nil, errTornFrame
	}
	size := frameHeaderSize + int(length)
	if err := s.fill(size); err != nil {
		if err == io.EOF {
			return nil, errTornFrame
		}
		return nil, err
	}
	payload, _, err := trace.NextFrame(s.buf[s.r:s.r+size], s.maxRecord)
	if err != nil {
		return nil, errTornFrame
	}
	s.r += size
	return payload, nil
}

// fill reads ahead until need unconsumed bytes are buffered; io.EOF
// means the file ended first.
func (s *segReader) fill(need int) error {
	if s.w-s.r >= need {
		return nil
	}
	if need > len(s.buf) {
		grown := make([]byte, need)
		copy(grown, s.buf[s.r:s.w])
		s.buf = grown
	} else {
		copy(s.buf, s.buf[s.r:s.w])
	}
	s.r, s.w = 0, s.w-s.r
	for s.w < need {
		n, err := s.f.ReadAt(s.buf[s.w:], s.off)
		s.off += int64(n)
		s.w += n
		if err != nil && s.w < need {
			return err
		}
	}
	return nil
}
