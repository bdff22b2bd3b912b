package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ssdfail/internal/faultfs"
)

// collectFrom drains ReadFrom into a slice of (lsn, payload) pairs.
func collectFrom(t *testing.T, l *Log, from uint64) (lsns []uint64, payloads []string, next uint64) {
	t.Helper()
	next, err := l.ReadFrom(from, func(lsn uint64, payload []byte) error {
		lsns = append(lsns, lsn)
		payloads = append(payloads, string(payload))
		return nil
	})
	if err != nil {
		t.Fatalf("ReadFrom(%d): %v", from, err)
	}
	return lsns, payloads, next
}

func TestReadFromStreamsAcrossSegments(t *testing.T) {
	fsys := faultfs.Mem()
	dir := "wal"
	// Tiny segments force rotation every couple of records.
	l, _, err := Open(Options{Dir: dir, FS: fsys, SegmentBytes: 64, SyncEvery: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("record-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	defer l.Close() //ssdlint:allow droppederr test cleanup

	segs, err := listSegments(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("want >= 3 segments to exercise crossing, got %d", len(segs))
	}

	lsns, payloads, next := collectFrom(t, l, 0)
	if len(lsns) != n {
		t.Fatalf("frames delivered = %d, want %d", len(lsns), n)
	}
	for i, lsn := range lsns {
		if lsn != uint64(i+1) {
			t.Fatalf("frame %d has lsn %d, want %d", i, lsn, i+1)
		}
		if want := fmt.Sprintf("record-%02d", i); payloads[i] != want {
			t.Fatalf("frame %d payload %q, want %q", i, payloads[i], want)
		}
	}
	if next != n+1 {
		t.Fatalf("next = %d, want %d", next, n+1)
	}

	// Resuming mid-log — including from inside a later segment — yields
	// exactly the suffix.
	for _, from := range []uint64{1, 5, uint64(n), uint64(n) + 1, uint64(n) + 7} {
		lsns, _, next := collectFrom(t, l, from)
		want := n - int(from) + 1
		if want < 0 {
			want = 0
		}
		if len(lsns) != want {
			t.Fatalf("from %d: delivered %d frames, want %d", from, len(lsns), want)
		}
		if want > 0 && lsns[0] != from {
			t.Fatalf("from %d: first lsn %d", from, lsns[0])
		}
		wantNext := uint64(n) + 1
		if from > uint64(n) {
			wantNext = from
		}
		if next != wantNext {
			t.Fatalf("from %d: next = %d, want %d", from, next, wantNext)
		}
	}
}

func TestReadFromSeesFlushedButUnsyncedRecords(t *testing.T) {
	fsys := faultfs.Mem()
	dir := "wal"
	// Group commit: appends buffer in process until a sync boundary.
	l, _, err := Open(Options{Dir: dir, FS: fsys, SyncEvery: 1000, SyncInterval: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //ssdlint:allow droppederr test cleanup
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("buffered-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if fi, err := fsys.Stat(filepath.Join(dir, segName(1))); err != nil || fi.Size() != 0 {
		t.Fatalf("buffered frames reached the file before any read: size %d, err %v", fi.Size(), err)
	}
	// The read writes the buffer through itself (no fsync), so accepted
	// records are streamable at once; a caught-up read flushes nothing.
	if lsns, _, next := collectFrom(t, l, 6); len(lsns) != 0 || next != 6 {
		t.Fatalf("caught-up read delivered %d frames next %d", len(lsns), next)
	}
	if fi, _ := fsys.Stat(filepath.Join(dir, segName(1))); fi.Size() != 0 {
		t.Fatalf("a caught-up read wrote %d bytes through", fi.Size())
	}
	lsns, _, next := collectFrom(t, l, 0)
	if len(lsns) != 5 || next != 6 {
		t.Fatalf("delivered %d frames next %d, want 5 and 6", len(lsns), next)
	}
	if got := l.Stats().Fsyncs; got != 0 {
		t.Fatalf("reading cost %d fsyncs, want 0", got)
	}
}

func TestReadFromStopsAtCorruptFrame(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, SyncEvery: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	defer l.Close() //ssdlint:allow droppederr test cleanup
	// Flip one payload byte in the fourth frame: CRC now mismatches, so
	// the stream must end after frame 3 even though frames 5..6 are
	// intact on disk (they are unreachable, as at recovery).
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for i := 0; i < 3; i++ {
		length := binary.LittleEndian.Uint32(data[off:])
		off += frameHeaderSize + int(length)
	}
	data[off+frameHeaderSize] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	lsns, _, next := collectFrom(t, l, 0)
	if len(lsns) != 3 || next != 4 {
		t.Fatalf("delivered %d frames next %d, want 3 and 4", len(lsns), next)
	}
	// Nor does a read that asks for a frame past the damage skip over it:
	// the frames between the indexed start and from are verified too.
	if lsns, _, next := collectFrom(t, l, 5); len(lsns) != 0 || next != 5 {
		t.Fatalf("from 5: delivered %v next %d, want nothing and 5", lsns, next)
	}
}

func TestReadFromPrunedFloor(t *testing.T) {
	fsys := faultfs.Mem()
	dir := "wal"
	l, _, err := Open(Options{Dir: dir, FS: fsys, SegmentBytes: 64, SyncEvery: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Prune(7); err != nil {
		t.Fatal(err)
	}
	defer l.Close() //ssdlint:allow droppederr test cleanup
	segs, err := listSegments(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	floor := segs[0]
	if floor <= 1 {
		t.Fatalf("prune kept segment 1; floor %d", floor)
	}
	if _, err := l.ReadFrom(1, func(uint64, []byte) error { return nil }); !errors.Is(err, ErrPruned) {
		t.Fatalf("ReadFrom below floor: err = %v, want ErrPruned", err)
	}
	lsns, _, _ := collectFrom(t, l, floor)
	if len(lsns) == 0 || lsns[0] != floor {
		t.Fatalf("reading from the floor %d delivered %v", floor, lsns)
	}
}

func TestReadFromCallbackErrorAborts(t *testing.T) {
	fsys := faultfs.Mem()
	dir := "wal"
	l, _, err := Open(Options{Dir: dir, FS: fsys, SyncEvery: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := l.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	defer l.Close() //ssdlint:allow droppederr test cleanup
	boom := errors.New("boom")
	seen := 0
	next, err := l.ReadFrom(0, func(lsn uint64, _ []byte) error {
		seen++
		if lsn == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if seen != 2 || next != 2 {
		t.Fatalf("seen %d next %d, want 2 and 2 (frame 2 not delivered)", seen, next)
	}
}
