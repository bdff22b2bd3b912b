package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"ssdfail/internal/faultfs"
	"ssdfail/internal/trace"
)

// Snapshot file layout: 8-byte magic, u64 LSN (every record with an LSN
// at or below it is included), then any number of sections and a closing
// trailer:
//
//	section  len u32 (> 0) | crc32c u32 of payload | payload
//	trailer  0 u32 | section count u32 | file length u64 | crc32c u32 of the 16 trailer bytes before it
//
// Sections let a writer stream state it never holds in one piece, and a
// reader verify and load it through a buffer the size of the largest
// section. The trailer is what tells a complete file from one cut at a
// section boundary. The file is replaced atomically (write temp, fsync,
// rename, fsync dir), so a crash mid-snapshot leaves the previous
// snapshot intact.
//
// Files written before sections existed ("SSDWSNP1": magic, LSN, u32
// payload length, u32 CRC32C, payload) still load, as one section.

const (
	snapMagic   = "SSDWSNP2"
	snapMagicV1 = "SSDWSNP1"
	// SnapshotName is the current-snapshot file inside Options.Dir.
	SnapshotName = "snapshot.snap"
	snapTmpName  = "snapshot.tmp"
	snapHeader   = len(snapMagic) + 8
	snapTrailer  = 4 + 4 + 8 + 4
)

// ErrSnapshotCorrupt marks a snapshot that exists but fails validation.
// Recovery should proceed as if no snapshot existed (replaying whatever
// WAL segments remain) and surface the corruption to the operator.
var ErrSnapshotCorrupt = errors.New("wal: snapshot corrupt")

// SnapshotWriter appends sections to the snapshot WriteSnapshot is
// writing.
type SnapshotWriter struct {
	f        faultfs.File
	sections uint32
	size     int64
	hdr      [snapTrailer]byte
}

// Section appends one checksummed section. The payload is written
// through before Section returns and is not retained, so the caller may
// reuse its buffer for the next one.
func (w *SnapshotWriter) Section(payload []byte) error {
	if len(payload) == 0 {
		return errors.New("wal: empty snapshot section")
	}
	binary.LittleEndian.PutUint32(w.hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.hdr[4:8], trace.FrameCRC(payload))
	if err := w.write(w.hdr[:8]); err != nil {
		return err
	}
	if err := w.write(payload); err != nil {
		return err
	}
	w.sections++
	return nil
}

func (w *SnapshotWriter) write(b []byte) error {
	n, err := w.f.Write(b)
	w.size += int64(n)
	if err != nil {
		return fmt.Errorf("wal: snapshot write: %w", err)
	}
	return nil
}

// WriteSnapshot atomically replaces the snapshot file with the sections
// body writes, covering every record with an LSN at or below lsn. An
// error from body abandons the snapshot and is returned as is. Concurrent
// calls are serialized, body included; the log keeps appending meanwhile.
//
//ssdlint:allow lockheld snapMu exists to serialize exactly this blocking write-rename-fsync sequence; it is never taken on the append path
func (l *Log) WriteSnapshot(lsn uint64, body func(*SnapshotWriter) error) error {
	l.snapMu.Lock()
	defer l.snapMu.Unlock()
	start := time.Now()
	fsys, dir := l.opt.FS, l.opt.Dir
	tmp := filepath.Join(dir, snapTmpName)
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot temp: %w", err)
	}
	w := &SnapshotWriter{f: f}
	if err := w.stream(lsn, body); err != nil {
		f.Close() //ssdlint:allow droppederr error-path cleanup of a temp file; the write failure already aborts the snapshot
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close() //ssdlint:allow droppederr error-path cleanup of a temp file; the fsync failure already aborts the snapshot
		return fmt.Errorf("wal: snapshot fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: snapshot close: %w", err)
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, SnapshotName)); err != nil {
		return fmt.Errorf("wal: snapshot rename: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("wal: snapshot dir fsync: %w", err)
	}
	l.snapLSN.Store(lsn)
	l.snapshots.Add(1)
	l.snapBytes.Add(uint64(w.size))
	l.snapNanos.Add(int64(time.Since(start)))
	return nil
}

// stream writes the whole file: header, body's sections, trailer.
func (w *SnapshotWriter) stream(lsn uint64, body func(*SnapshotWriter) error) error {
	copy(w.hdr[:], snapMagic)
	binary.LittleEndian.PutUint64(w.hdr[len(snapMagic):], lsn)
	if err := w.write(w.hdr[:snapHeader]); err != nil {
		return err
	}
	if err := body(w); err != nil {
		return err
	}
	t := w.hdr[:snapTrailer]
	binary.LittleEndian.PutUint32(t[0:4], 0)
	binary.LittleEndian.PutUint32(t[4:8], w.sections)
	binary.LittleEndian.PutUint64(t[8:16], uint64(w.size)+snapTrailer)
	binary.LittleEndian.PutUint32(t[16:20], trace.FrameCRC(t[:16]))
	return w.write(t)
}

// LoadSnapshot reads the snapshot in opt.Dir through a buffer the size
// of its largest section, calling section with each section's payload
// (valid only during the call) once its checksum has been verified, and
// returns the LSN the snapshot covers. found is false when there is no
// snapshot. A snapshot that exists but fails validation returns
// found=false and an error wrapping ErrSnapshotCorrupt; the caller may
// still recover from the WAL alone. An error from section ends the read
// and is returned as is.
//
// Validation finishes with the trailer, after every section has been
// delivered. A caller that must not act on part of a corrupt snapshot
// reads it twice: once to check, once to apply.
func LoadSnapshot(opt Options, section func(payload []byte) error) (lsn uint64, found bool, err error) {
	opt = opt.withDefaults()
	path := filepath.Join(opt.Dir, SnapshotName)
	info, err := opt.FS.Stat(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("wal: reading snapshot: %w", err)
	}
	f, err := opt.FS.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return 0, false, fmt.Errorf("wal: reading snapshot: %w", err)
	}
	defer f.Close() //ssdlint:allow droppederr read-only descriptor; Close cannot lose data we have not already read
	r := snapReader{f: f, left: info.Size(), size: info.Size()}
	if lsn, err = r.read(section); err != nil {
		return 0, false, err
	}
	return lsn, true, nil
}

// snapReader reads one snapshot file front to back.
type snapReader struct {
	f    faultfs.File
	left int64  // bytes of the file not yet read
	size int64  // the file's length
	buf  []byte // section payloads, reused
}

// next reads exactly n bytes into the reused buffer. A length the file
// cannot hold is corruption, decided before anything is allocated.
func (r *snapReader) next(n int64, what string) ([]byte, error) {
	if n > r.left {
		return nil, fmt.Errorf("%w: %s needs %d bytes, %d left", ErrSnapshotCorrupt, what, n, r.left)
	}
	if int64(cap(r.buf)) < n {
		r.buf = make([]byte, n)
	}
	b := r.buf[:n]
	if _, err := io.ReadFull(r.f, b); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: %s cut short", ErrSnapshotCorrupt, what)
		}
		return nil, fmt.Errorf("wal: reading snapshot: %w", err)
	}
	r.left -= n
	return b, nil
}

func (r *snapReader) read(section func([]byte) error) (uint64, error) {
	hdr, err := r.next(int64(snapHeader), "header")
	if err != nil {
		return 0, err
	}
	magic, lsn := string(hdr[:len(snapMagic)]), binary.LittleEndian.Uint64(hdr[len(snapMagic):])
	switch magic {
	case snapMagic:
		return lsn, r.sections(section)
	case snapMagicV1:
		return lsn, r.legacy(section)
	}
	return 0, fmt.Errorf("%w: bad header", ErrSnapshotCorrupt)
}

// sections delivers every section and then checks the trailer.
func (r *snapReader) sections(section func([]byte) error) error {
	for count := uint32(0); ; count++ {
		word, err := r.next(8, "section header")
		if err != nil {
			return err
		}
		length, sum := binary.LittleEndian.Uint32(word[0:4]), binary.LittleEndian.Uint32(word[4:8])
		if length == 0 {
			// The trailer; sum is its section count.
			rest, err := r.next(snapTrailer-8, "trailer")
			if err != nil {
				return err
			}
			var t [snapTrailer]byte
			binary.LittleEndian.PutUint32(t[4:8], sum)
			copy(t[8:], rest)
			switch {
			case trace.FrameCRC(t[:16]) != binary.LittleEndian.Uint32(t[16:20]):
				return fmt.Errorf("%w: trailer checksum mismatch", ErrSnapshotCorrupt)
			case sum != count:
				return fmt.Errorf("%w: trailer counts %d sections, file holds %d", ErrSnapshotCorrupt, sum, count)
			case binary.LittleEndian.Uint64(t[8:16]) != uint64(r.size) || r.left != 0:
				return fmt.Errorf("%w: trailer ends a %d-byte file, this one has %d",
					ErrSnapshotCorrupt, binary.LittleEndian.Uint64(t[8:16]), r.size)
			}
			return nil
		}
		payload, err := r.next(int64(length), "section")
		if err != nil {
			return err
		}
		if trace.FrameCRC(payload) != sum {
			return fmt.Errorf("%w: section %d checksum mismatch", ErrSnapshotCorrupt, count)
		}
		if err := section(payload); err != nil {
			return err
		}
	}
}

// legacy delivers an "SSDWSNP1" file's single payload.
func (r *snapReader) legacy(section func([]byte) error) error {
	word, err := r.next(8, "header")
	if err != nil {
		return err
	}
	length, sum := binary.LittleEndian.Uint32(word[0:4]), binary.LittleEndian.Uint32(word[4:8])
	if int64(length) != r.left {
		return fmt.Errorf("%w: length %d != %d payload bytes", ErrSnapshotCorrupt, length, r.left)
	}
	payload, err := r.next(r.left, "payload")
	if err != nil {
		return err
	}
	if trace.FrameCRC(payload) != sum {
		return fmt.Errorf("%w: checksum mismatch", ErrSnapshotCorrupt)
	}
	return section(payload)
}
