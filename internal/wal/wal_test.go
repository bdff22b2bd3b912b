package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ssdfail/internal/faultfs"
	"ssdfail/internal/trace"
)

func testOpts(fs faultfs.FS) Options {
	return Options{Dir: "/wal", FS: fs, SegmentBytes: 256, SyncEvery: 1, MaxRecordBytes: 1 << 16}
}

func collect(t *testing.T, opt Options) (*Log, []string, RecoveryStats) {
	t.Helper()
	var got []string
	l, stats, err := Open(opt, func(lsn uint64, payload []byte) {
		got = append(got, fmt.Sprintf("%d:%s", lsn, payload))
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, got, stats
}

func TestAppendReplayRoundTripAcrossSegments(t *testing.T) {
	fs := faultfs.Mem()
	opt := testOpts(fs)
	l, got, _ := collect(t, opt)
	if len(got) != 0 {
		t.Fatalf("fresh log replayed %v", got)
	}
	const n = 40 // tiny segments force several rotations
	for i := 0; i < n; i++ {
		lsn, err := l.Append([]byte(fmt.Sprintf("record-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("append %d: lsn %d", i, lsn)
		}
	}
	if l.Stats().Rotations == 0 {
		t.Fatal("no rotations with 256-byte segments")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, got, stats := collect(t, opt)
	defer l2.Close()
	if len(got) != n || stats.Records != n {
		t.Fatalf("replayed %d records (stats %d), want %d", len(got), stats.Records, n)
	}
	for i, g := range got {
		want := fmt.Sprintf("%d:record-%03d", i+1, i)
		if g != want {
			t.Fatalf("replay[%d] = %q, want %q", i, g, want)
		}
	}
	if stats.Truncations != 0 {
		t.Fatalf("clean log reported %d truncations", stats.Truncations)
	}
	// Appending after reopen continues the LSN sequence.
	lsn, err := l2.Append([]byte("after-reopen"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != n+1 {
		t.Fatalf("post-reopen lsn = %d, want %d", lsn, n+1)
	}
}

// TestOpenIgnoresForeignFileWithSegmentPrefix: a file that starts like a
// segment name but ends in another suffix of the same length — here a
// backup of the first segment's name — is not a segment. Open must not
// list it, recover the same records with it present, and leave it as it
// was.
func TestOpenIgnoresForeignFileWithSegmentPrefix(t *testing.T) {
	fs := faultfs.Mem()
	opt := testOpts(fs)
	l, _, _ := collect(t, opt)
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("record-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, want, wantStats := collect(t, opt)

	foreign := filepath.Join(opt.Dir, segPrefix+fmt.Sprintf("%020d", 1)+".bak")
	if len(filepath.Base(foreign)) != len(segName(1)) {
		t.Fatalf("%s is not as long as a segment name", foreign)
	}
	content := []byte("not a segment: a backup an operator left behind")
	f, err := fs.OpenFile(foreign, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(content); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	l2, got, stats := collect(t, opt)
	if strings.Join(got, ",") != strings.Join(want, ",") || stats != wantStats {
		t.Fatalf("with %s present Open recovered %d records (%+v), without it %d (%+v)",
			filepath.Base(foreign), len(got), stats, len(want), wantStats)
	}
	if _, err := l2.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat(foreign)
	if err != nil {
		t.Fatalf("the foreign file is gone: %v", err)
	}
	r, err := fs.OpenFile(foreign, os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	b := make([]byte, info.Size())
	if _, err := r.ReadAt(b, 0); err != nil || !bytes.Equal(b, content) {
		t.Fatalf("the foreign file now holds %q (%v), want %q", b, err, content)
	}
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	fs := faultfs.Mem()
	opt := testOpts(fs)
	opt.SegmentBytes = 1 << 20 // single segment
	l, _, _ := collect(t, opt)
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last frame: drop its final byte.
	path := filepath.Join(opt.Dir, segName(1))
	fi, err := fs.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate(path, fi.Size()-1); err != nil {
		t.Fatal(err)
	}

	l2, got, stats := collect(t, opt)
	if len(got) != 4 {
		t.Fatalf("replayed %d records after tear, want 4", len(got))
	}
	if stats.Truncations != 1 || stats.TruncatedBytes == 0 {
		t.Fatalf("stats = %+v, want one truncation", stats)
	}
	// The log stays appendable and the torn LSN is reused.
	lsn, err := l2.Append([]byte("rec4-retry"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 5 {
		t.Fatalf("retry lsn = %d, want 5", lsn)
	}
	l2.Close()
	_, got, _ = collect(t, opt)
	if len(got) != 5 || got[4] != "5:rec4-retry" {
		t.Fatalf("after retry replay = %v", got)
	}
}

func TestRecoveryDropsSegmentsAfterCorruptFrame(t *testing.T) {
	fs := faultfs.Mem()
	opt := testOpts(fs)
	l, _, _ := collect(t, opt)
	for i := 0; i < 40; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("record-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	firsts, err := listSegments(fs, opt.Dir)
	if err != nil || len(firsts) < 3 {
		t.Fatalf("want >= 3 segments, got %d (err %v)", len(firsts), err)
	}
	// Flip a payload byte in the second segment's first frame.
	victim := filepath.Join(opt.Dir, segName(firsts[1]))
	f, err := fs.OpenFile(victim, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa, 0xf9, 0xf8, 0xf7}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, got, stats := collect(t, opt)
	if uint64(len(got)) != firsts[1]-1 {
		t.Fatalf("replayed %d records, want %d (everything before the corrupt segment)",
			len(got), firsts[1]-1)
	}
	if stats.Truncations != 1 {
		t.Fatalf("truncations = %d, want 1", stats.Truncations)
	}
	if stats.SegmentsDropped == 0 {
		t.Fatal("segments after the corruption were kept")
	}
}

// writeSnap writes a snapshot of the given sections.
func writeSnap(l *Log, lsn uint64, sections ...string) error {
	return l.WriteSnapshot(lsn, func(w *SnapshotWriter) error {
		for _, s := range sections {
			if err := w.Section([]byte(s)); err != nil {
				return err
			}
		}
		return nil
	})
}

// loadSnap loads the snapshot and joins its sections with "|".
func loadSnap(opt Options) (payload []byte, lsn uint64, found bool, err error) {
	var parts []string
	lsn, found, err = LoadSnapshot(opt, func(p []byte) error {
		parts = append(parts, string(p))
		return nil
	})
	return []byte(strings.Join(parts, "|")), lsn, found, err
}

func TestSnapshotRoundTripAndPrune(t *testing.T) {
	fs := faultfs.Mem()
	opt := testOpts(fs)
	if _, _, found, err := loadSnap(opt); found || err != nil {
		t.Fatalf("empty dir: found=%v err=%v", found, err)
	}
	l, _, _ := collect(t, opt)
	for i := 0; i < 30; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("record-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeSnap(l, l.LastLSN(), "snapshot-state"); err != nil {
		t.Fatal(err)
	}
	payload, lsn, found, err := loadSnap(opt)
	if err != nil || !found {
		t.Fatalf("load: found=%v err=%v", found, err)
	}
	if lsn != 30 || string(payload) != "snapshot-state" {
		t.Fatalf("snapshot = (%d, %q)", lsn, payload)
	}

	before, _ := listSegments(fs, opt.Dir)
	removed, err := l.Prune(lsn + 1)
	if err != nil {
		t.Fatal(err)
	}
	after, _ := listSegments(fs, opt.Dir)
	if removed == 0 || len(after) >= len(before) {
		t.Fatalf("prune removed %d segments (%d -> %d)", removed, len(before), len(after))
	}
	// Replay after pruning starts past the snapshot's coverage.
	l.Close()
	_, got, _ := collect(t, opt)
	for _, g := range got {
		var lsn int
		fmt.Sscanf(g, "%d:", &lsn)
		if lsn <= 0 {
			t.Fatalf("bad replayed entry %q", g)
		}
	}
	if len(got) == 30 {
		t.Fatal("prune removed nothing from replay")
	}
}

// TestRecoveryFloorsNextLSNAtSnapshot pins the MinLSN floor: when a
// crash loses the WAL tail a published snapshot already covers, reopen
// must hand out LSNs past the snapshot, never reuse covered ones (a
// reuse would make the next boot's snapshot filter drop fresh records).
func TestRecoveryFloorsNextLSNAtSnapshot(t *testing.T) {
	fs := faultfs.Mem()
	opt := testOpts(fs)
	opt.SegmentBytes = 1 << 20
	opt.SyncEvery = SyncNever // appends stay in the in-process buffer
	l, _, _ := collect(t, opt)
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("buffered-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// A snapshot claiming coverage through LSN 5 is published, but the
	// five frames were never flushed. Abandon the log without Close:
	// the crash loses the entire buffered tail.
	if err := writeSnap(l, 5, "covers-1-through-5"); err != nil {
		t.Fatal(err)
	}

	opt.MinLSN = 5
	l2, got, stats := collect(t, opt)
	if len(got) != 0 {
		t.Fatalf("replayed %v from a log whose frames were never written", got)
	}
	if stats.SegmentsDropped == 0 {
		t.Fatal("stale snapshot-covered segment was kept")
	}
	lsn, err := l2.Append([]byte("post-recovery"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 6 {
		t.Fatalf("post-recovery lsn = %d, want 6 (past the snapshot)", lsn)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, _ = collect(t, opt)
	if len(got) != 1 || got[0] != "6:post-recovery" {
		t.Fatalf("replay after floor = %v, want [6:post-recovery]", got)
	}
}

// TestPeriodicSyncBoundsTrickleLatency checks the SyncInterval timer: a
// single record under a large group-commit policy must still be flushed
// and fsynced within the interval, not sit buffered indefinitely.
func TestPeriodicSyncBoundsTrickleLatency(t *testing.T) {
	fs := faultfs.Mem()
	opt := testOpts(fs)
	opt.SyncEvery = 64
	opt.SyncInterval = 2 * time.Millisecond
	l, _, _ := collect(t, opt)
	defer l.Close()
	if _, err := l.Append([]byte("trickle")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Fsyncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no timer-driven fsync within 5s of a trickle append")
		}
		time.Sleep(time.Millisecond)
	}
	// The fsync covered real bytes: the frame reached the segment file.
	data, err := readAll(fs, filepath.Join(opt.Dir, segName(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if payload, _, err := trace.NextFrame(data, opt.MaxRecordBytes); err != nil || string(payload) != "trickle" {
		t.Fatalf("segment holds %d bytes without the trickle frame", len(data))
	}
}

func TestCorruptSnapshotIsReportedNotFatal(t *testing.T) {
	fs := faultfs.Mem()
	opt := testOpts(fs)
	l, _, _ := collect(t, opt)
	if err := writeSnap(l, 3, "good"); err != nil {
		t.Fatal(err)
	}
	l.Close()
	path := filepath.Join(opt.Dir, SnapshotName)
	f, err := fs.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("XXXX")) //nolint:errcheck
	f.Close()
	_, _, found, err := loadSnap(opt)
	if found {
		t.Fatal("corrupt snapshot reported as found")
	}
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
	}
}

// TestSnapshotSectionsValidated writes a three-section snapshot and
// damages it every way the format is meant to catch: each must be
// reported corrupt, and only after the sections before the damage were
// delivered — the reason a caller that applies sections reads twice.
func TestSnapshotSectionsValidated(t *testing.T) {
	fs := faultfs.Mem()
	opt := testOpts(fs)
	l, _, _ := collect(t, opt)
	defer l.Close()
	if err := writeSnap(l, 9, "alpha", "bravo-bravo", "charlie"); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Snapshots != 1 || st.SnapshotBytes == 0 || l.SnapshotLSN() != 9 {
		t.Fatalf("after one snapshot: stats %+v, snapshot lsn %d", st, l.SnapshotLSN())
	}
	path := filepath.Join(opt.Dir, SnapshotName)
	good, err := readAll(fs, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(good)) != l.Stats().SnapshotBytes {
		t.Fatalf("snapshot file is %d bytes, stats count %d", len(good), l.Stats().SnapshotBytes)
	}
	if payload, lsn, found, err := loadSnap(opt); err != nil || !found || lsn != 9 || string(payload) != "alpha|bravo-bravo|charlie" {
		t.Fatalf("intact snapshot = (%q, %d, %v, %v)", payload, lsn, found, err)
	}
	// Offsets: header, then len|crc|payload per section, then the trailer.
	sec2 := snapHeader + 8 + len("alpha")
	sec3 := sec2 + 8 + len("bravo-bravo")
	trailer := sec3 + 8 + len("charlie")
	flip := func(at int) []byte {
		b := append([]byte(nil), good...)
		b[at] ^= 0x40
		return b
	}
	cases := []struct {
		name      string
		data      []byte
		delivered string // sections handed out before the damage shows
	}{
		{"bad magic", flip(3), ""},
		{"flipped payload byte", flip(sec2 + 8 + 2), "alpha"},
		{"flipped section checksum", flip(sec3 + 5), "alpha|bravo-bravo"},
		{"section length past the file", flip(sec2 + 3), "alpha"},
		{"cut at a section boundary", good[:sec3], "alpha|bravo-bravo"},
		{"cut inside a section", good[:sec3+10], "alpha|bravo-bravo"},
		{"trailer missing", good[:trailer], "alpha|bravo-bravo|charlie"},
		{"trailer cut short", good[:len(good)-3], "alpha|bravo-bravo|charlie"},
		{"trailer section count", flip(trailer + 4), "alpha|bravo-bravo|charlie"},
		{"trailer file length", flip(trailer + 8), "alpha|bravo-bravo|charlie"},
		{"trailer checksum", flip(len(good) - 1), "alpha|bravo-bravo|charlie"},
		{"trailing garbage", append(append([]byte(nil), good...), 'x'), "alpha|bravo-bravo|charlie"},
		{"empty file", nil, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.Write(tc.data) //nolint:errcheck
			f.Close()
			payload, _, found, err := loadSnap(opt)
			if found || !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("found=%v err=%v, want ErrSnapshotCorrupt", found, err)
			}
			if string(payload) != tc.delivered {
				t.Fatalf("delivered %q before the error, want %q", payload, tc.delivered)
			}
		})
	}
}

// TestSnapshotLegacyFormatLoads: a file in the pre-section layout
// (SSDWSNP1: one length, one checksum, one payload) loads as a single
// section.
func TestSnapshotLegacyFormatLoads(t *testing.T) {
	fs := faultfs.Mem()
	opt := testOpts(fs)
	l, _, _ := collect(t, opt)
	l.Close()
	payload := []byte("whole-store-in-one-piece")
	file := append([]byte("SSDWSNP1"), 42, 0, 0, 0, 0, 0, 0, 0)
	file = binary.LittleEndian.AppendUint32(file, uint32(len(payload)))
	file = binary.LittleEndian.AppendUint32(file, trace.FrameCRC(payload))
	file = append(file, payload...)
	write := func(b []byte) {
		f, err := fs.OpenFile(filepath.Join(opt.Dir, SnapshotName), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(b) //nolint:errcheck
		f.Close()
	}
	write(file)
	if got, lsn, found, err := loadSnap(opt); err != nil || !found || lsn != 42 || !bytes.Equal(got, payload) {
		t.Fatalf("legacy snapshot = (%q, %d, %v, %v)", got, lsn, found, err)
	}
	write(file[:len(file)-1])
	if _, _, found, err := loadSnap(opt); found || !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("truncated legacy snapshot: found=%v err=%v", found, err)
	}
	file[len(file)-1] ^= 1
	write(file)
	if _, _, found, err := loadSnap(opt); found || !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("legacy snapshot with a flipped byte: found=%v err=%v", found, err)
	}
}

// TestGroupCommitFsyncsTheFile holds the syncer's fsync counter to the
// fsyncs the filesystem saw: every policy fsync the log counts must be a
// File.Sync that reached the filesystem, or a group commit could report
// durability it never asked for.
func TestGroupCommitFsyncsTheFile(t *testing.T) {
	inj := faultfs.New(faultfs.Mem())
	opt := testOpts(inj)
	opt.SegmentBytes = 1 << 20 // no rotation, whose fsync is not the syncer's
	opt.SyncEvery = 8
	opt.SyncInterval = -1 // group commits only, no timer
	l, _, _ := collect(t, opt)
	defer l.Close()
	syncs0, fsyncs0 := inj.Count(faultfs.OpSync), l.Stats().Fsyncs
	for i := 0; i < 5*opt.SyncEvery+3; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Fsyncs == fsyncs0 {
		if time.Now().After(deadline) {
			t.Fatal("the syncer counted no fsync within 5s of five group commits' worth of appends")
		}
		time.Sleep(time.Millisecond)
	}
	// The counter first: an fsync is counted after its File.Sync returns.
	fsyncs := l.Stats().Fsyncs - fsyncs0
	syncs := uint64(inj.Count(faultfs.OpSync) - syncs0)
	if syncs < fsyncs {
		t.Fatalf("the log counts %d fsyncs, the filesystem saw %d File.Sync calls", fsyncs, syncs)
	}
}

func TestAppendPoisonedAfterWriteError(t *testing.T) {
	mem := faultfs.Mem()
	inj := faultfs.New(mem)
	opt := testOpts(inj)
	opt.SegmentBytes = 1 << 20
	l, _, _ := collect(t, opt)
	if _, err := l.Append([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	inj.Add(faultfs.Fault{Op: faultfs.OpWrite, N: 2, Mode: faultfs.ModeShortWrite, Bytes: 3})
	if _, err := l.Append([]byte("torn-record")); err == nil {
		t.Fatal("short write accepted")
	}
	if _, err := l.Append([]byte("after")); !errors.Is(err, ErrBroken) {
		t.Fatalf("append after write error: %v, want ErrBroken", err)
	}
	// Reopen on the raw fs: the torn frame is truncated away.
	opt.FS = mem
	_, got, stats := collect(t, opt)
	if len(got) != 1 || got[0] != "1:ok" {
		t.Fatalf("replay = %v", got)
	}
	if stats.Truncations != 1 {
		t.Fatalf("truncations = %d, want 1", stats.Truncations)
	}
}

func TestOpenOnRealFilesystem(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Dir: filepath.Join(dir, "wal"), SyncEvery: 2, SegmentBytes: 128}
	l, _, err := Open(opt, func(uint64, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("disk-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeSnap(l, 4, "disk-snap"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	payload, lsn, found, err := loadSnap(opt)
	if err != nil || !found || lsn != 4 || string(payload) != "disk-snap" {
		t.Fatalf("snapshot = (%q, %d, %v, %v)", payload, lsn, found, err)
	}
	n := 0
	l2, _, err := Open(opt, func(uint64, []byte) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if n != 10 {
		t.Fatalf("replayed %d, want 10", n)
	}
	if got := l2.Stats().Fsyncs; got != 0 {
		t.Fatalf("fresh log fsyncs = %d", got)
	}
}

// TestConcurrentAppendWithAsyncSyncer hammers the group-commit path:
// SyncEvery > 1 runs policy fsyncs on the background syncer goroutine
// concurrently with appends, flushes, and rotations. Every append must
// survive a clean close and reopen, exactly once and in LSN order.
func TestConcurrentAppendWithAsyncSyncer(t *testing.T) {
	opt := Options{Dir: filepath.Join(t.TempDir(), "wal"), SyncEvery: 8, SegmentBytes: 4096}
	l, _, err := Open(opt, func(uint64, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("w%02d-%04d", w, i))); err != nil {
					t.Errorf("worker %d append %d: %v", w, i, err)
					return
				}
				if i%97 == 0 {
					if err := l.Sync(); err != nil {
						t.Errorf("worker %d sync: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got := l.LastLSN(); got != workers*perWorker {
		t.Fatalf("last LSN = %d, want %d", got, workers*perWorker)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	seen := make(map[string]uint64)
	var prev uint64
	l2, stats, err := Open(opt, func(lsn uint64, payload []byte) {
		if lsn != prev+1 {
			t.Fatalf("replay LSN %d after %d", lsn, prev)
		}
		prev = lsn
		seen[string(payload)] = lsn
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if stats.Truncations != 0 || stats.SegmentsDropped != 0 {
		t.Fatalf("clean close left damage: %+v", stats)
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("replayed %d distinct records, want %d", len(seen), workers*perWorker)
	}
}
