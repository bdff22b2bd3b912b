package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"ssdfail/internal/faultfs"
)

// tailModel is the reference the tail reader is compared with: every
// record ever appended, by LSN. What is retained is read off the disk
// the way the directory-listing reader this one replaced did — the
// first LSN of the oldest segment file — so the index's idea of the
// floor is checked against the files, not against itself.
type tailModel struct {
	recs map[uint64][]byte
	last uint64
}

func (m *tailModel) floor(t *testing.T, fsys faultfs.FS, dir string) uint64 {
	t.Helper()
	firsts, err := listSegments(fsys, dir)
	if err != nil || len(firsts) == 0 {
		t.Fatalf("listing segments: %v (%d found)", err, len(firsts))
	}
	return firsts[0]
}

var errTailAbort = errors.New("tail test: callback abort")

// checkRead runs one ReadFrom with the callback failing on its
// abortAt-th call (0 = never) and compares LSNs, payload bytes, the
// returned next and the error with the model.
func (m *tailModel) checkRead(t *testing.T, l *Log, fsys faultfs.FS, dir string, from uint64, abortAt int) {
	t.Helper()
	var gotLSN []uint64
	var gotPayload [][]byte
	calls := 0
	next, err := l.ReadFrom(from, func(lsn uint64, payload []byte) error {
		calls++
		if calls == abortAt {
			return errTailAbort
		}
		gotLSN = append(gotLSN, lsn)
		gotPayload = append(gotPayload, bytes.Clone(payload))
		return nil
	})

	start := from
	if start == 0 {
		start = 1
	}
	if floor := m.floor(t, fsys, dir); start < floor && start <= m.last {
		if !errors.Is(err, ErrPruned) {
			t.Fatalf("ReadFrom(%d) with floor %d: err = %v, want ErrPruned", from, floor, err)
		}
		if len(gotLSN) != 0 || next != start {
			t.Fatalf("ReadFrom(%d) below the floor delivered %d frames, next %d", from, len(gotLSN), next)
		}
		return
	}
	wantNext := start
	var wantLSN []uint64
	var wantErr error
	for lsn := start; lsn <= m.last; lsn++ {
		if len(wantLSN)+1 == abortAt {
			wantErr = errTailAbort
			break
		}
		wantLSN = append(wantLSN, lsn)
		wantNext = lsn + 1
	}
	if err != wantErr {
		t.Fatalf("ReadFrom(%d, abort at %d): err = %v, want %v", from, abortAt, err, wantErr)
	}
	if next != wantNext {
		t.Fatalf("ReadFrom(%d, abort at %d): next = %d, want %d (last %d)", from, abortAt, next, wantNext, m.last)
	}
	if !reflect.DeepEqual(gotLSN, wantLSN) {
		t.Fatalf("ReadFrom(%d, abort at %d): delivered LSNs %v, want %v", from, abortAt, gotLSN, wantLSN)
	}
	for i, lsn := range gotLSN {
		if !bytes.Equal(gotPayload[i], m.recs[lsn]) {
			t.Fatalf("ReadFrom(%d): lsn %d payload differs from what was appended (%d vs %d bytes)",
				from, lsn, len(gotPayload[i]), len(m.recs[lsn]))
		}
	}
}

// TestTailReadMatchesModel interleaves appends of random sizes,
// rotations, Flush/Sync, Prune, and close → reopen (with a torn tail,
// and with MinLSN ahead of the tail) with reads at random positions
// whose callback aborts at random frames — some of them started while a
// group commit has the append buffer and is writing it outside the lock,
// which must not hide a frame from the read or reorder the file.
func TestTailReadMatchesModel(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 0x7a11))
			var fsys faultfs.FS = faultfs.Mem()
			dir := "wal"
			if seed%4 == 0 {
				fsys, dir = faultfs.OS(), t.TempDir() // the real pread and unlink
			}
			inj := faultfs.New(fsys)
			fsys = inj
			opt := Options{
				Dir: dir, FS: fsys, SyncInterval: -1,
				SegmentBytes: []int64{300, 4 << 10, 1 << 20}[rng.IntN(3)],
				SyncEvery:    []int{1, 8, SyncNever}[rng.IntN(3)],
			}
			m := &tailModel{recs: map[uint64][]byte{}}
			l, _, err := Open(opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { l.Close() }() //ssdlint:allow droppederr test cleanup

			reopen := func(minLSN uint64, tear bool) {
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				if tear {
					// Half a frame after the last whole one: recovery cuts it.
					f, err := fsys.OpenFile(filepath.Join(dir, segName(l.segStart)), os.O_WRONLY|os.O_APPEND, 0o644)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := f.Write([]byte{9, 0, 0, 0, 1, 2, 3, 4, 'x'}); err != nil {
						t.Fatal(err)
					}
					if err := f.Close(); err != nil {
						t.Fatal(err)
					}
				}
				o := opt
				o.MinLSN = minLSN
				floor := m.floor(t, fsys, dir)
				expect := floor
				l, _, err = Open(o, func(lsn uint64, payload []byte) {
					if lsn != expect || !bytes.Equal(payload, m.recs[lsn]) {
						t.Fatalf("reopen replayed lsn %d (%d bytes), want %d (%d bytes)", lsn, len(payload), expect, len(m.recs[expect]))
					}
					expect++
				})
				if err != nil {
					t.Fatal(err)
				}
				if expect != m.last+1 && m.last >= floor {
					t.Fatalf("reopen replayed up to %d, want %d", expect-1, m.last)
				}
				if minLSN > m.last {
					m.last = minLSN // numbering restarts past the snapshot; nothing below survives
				}
			}

			for step := 0; step < 400; step++ {
				switch op := rng.IntN(100); {
				case op < 55:
					size := 1 + rng.IntN(180)
					if rng.IntN(60) == 0 {
						size = tailBufBytes + rng.IntN(4<<10) // larger than the read buffer
					}
					p := make([]byte, size)
					for i := range p {
						p[i] = byte(rng.Uint32())
					}
					lsn, err := l.Append(p)
					if err != nil {
						t.Fatal(err)
					}
					if lsn != m.last+1 {
						t.Fatalf("append got lsn %d, want %d", lsn, m.last+1)
					}
					m.last = lsn
					m.recs[lsn] = p
				case op < 60:
					if err := l.Flush(); err != nil {
						t.Fatal(err)
					}
				case op < 64:
					if err := l.Sync(); err != nil {
						t.Fatal(err)
					}
				case op < 70:
					if _, err := l.Prune(rng.Uint64N(m.last + 2)); err != nil {
						t.Fatal(err)
					}
				case op < 73:
					reopen(0, rng.IntN(2) == 0)
				case op < 75:
					reopen(m.last+uint64(rng.IntN(40)), false)
				case op < 82:
					// A read that starts while a group commit is writing the
					// append buffer with l.mu released.
					from := rng.Uint64N(m.last + 3)
					if inWrite := holdNextCommit(l, inj); inWrite != nil {
						<-inWrite
					}
					m.checkRead(t, l, fsys, dir, from, 0)
				default:
					from := rng.Uint64N(m.last + 3)
					m.checkRead(t, l, fsys, dir, from, rng.IntN(4)*rng.IntN(40))
				}
			}
			// Every position once more, from both ends of the index stride.
			for from := uint64(0); from <= m.last+1; from += 1 + uint64(rng.IntN(indexStride)) {
				m.checkRead(t, l, fsys, dir, from, 0)
			}
		})
	}
}

// holdNextCommit makes the syncer start a group commit and stall inside
// its write, which runs with l.mu released, until the scheduler has been
// yielded to some fifty times. The returned channel is closed once the
// write has begun; it is nil when there is no syncer or nothing buffered
// for it to write. A reader that did not wait for the commit would run in
// those yields and miss the frames in flight.
func holdNextCommit(l *Log, inj *faultfs.Injector) <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.syncBusy {
		l.syncCond.Wait()
	}
	if l.syncCh == nil || len(l.buf) == 0 || l.err != nil {
		return nil
	}
	inWrite := make(chan struct{})
	// With the syncer idle and l.mu held nothing else can write, so the
	// next write is the commit's.
	inj.Add(faultfs.Fault{Op: faultfs.OpWrite, N: inj.Count(faultfs.OpWrite) + 1, Mode: faultfs.ModeHook, Hook: func() {
		close(inWrite)
		for i := 0; i < 50; i++ {
			runtime.Gosched()
		}
	}})
	select {
	case l.syncCh <- struct{}{}:
	default: // a request is already queued
	}
	return inWrite
}

// tailLog opens a log on fsys and appends n records "rec-<lsn>".
func tailLog(t *testing.T, fsys faultfs.FS, segBytes int64, n int) *Log {
	t.Helper()
	l, _, err := Open(Options{Dir: "wal", FS: fsys, SegmentBytes: segBytes, SyncEvery: SyncNever}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() }) //ssdlint:allow droppederr test cleanup
	for i := 1; i <= n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// TestTailReadStopsBeforeFlippedByte: a flipped byte in the middle of a
// segment ends every stream that would have to cross it exactly before
// that frame; the index never lets a reader behind the damage skip it.
func TestTailReadStopsBeforeFlippedByte(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, SyncEvery: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //ssdlint:allow droppederr test cleanup
	const n, bad = 300, 150
	frame := frameHeaderSize + len("rec-000000")
	for i := 1; i <= n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[(bad-1)*frame+frameHeaderSize+3] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for from := uint64(1); from <= bad; from++ {
		lsns, _, next := collectFrom(t, l, from)
		if want := int(bad - from); len(lsns) != want || next != bad {
			t.Fatalf("from %d: delivered %d frames next %d, want %d and %d", from, len(lsns), next, want, bad)
		}
	}
}

// TestTailReadSegmentVanishesBetweenLookupAndOpen pins the prune race:
// a snapshot's Prune removing the segment a reader has just looked up
// must read as "pruned", not as a missing file.
func TestTailReadSegmentVanishesBetweenLookupAndOpen(t *testing.T) {
	nop := func(uint64, []byte) error { return nil }

	t.Run("pruned", func(t *testing.T) {
		in := faultfs.New(faultfs.Mem())
		l := tailLog(t, in, 128, 40)
		in.Add(faultfs.Fault{Op: faultfs.OpOpen, N: in.Count(faultfs.OpOpen) + 1, Mode: faultfs.ModeHook, Hook: func() {
			if n, err := l.Prune(20); err != nil || n == 0 {
				t.Errorf("prune inside the race window removed %d segments, err %v", n, err)
			}
		}})
		next, err := l.ReadFrom(1, nop)
		if !errors.Is(err, ErrPruned) || next != 1 {
			t.Fatalf("read racing a prune: next %d err %v, want 1 and ErrPruned", next, err)
		}
		// A position the prune kept is served as if nothing had happened.
		firsts, err := listSegments(in, "wal")
		if err != nil {
			t.Fatal(err)
		}
		if lsns, _, _ := collectFrom(t, l, firsts[0]); len(lsns) != 40-int(firsts[0])+1 {
			t.Fatalf("from the new floor %d: delivered %d frames", firsts[0], len(lsns))
		}
	})

	t.Run("lost", func(t *testing.T) {
		// Not a prune — the file is simply gone while the index still
		// holds it: one more look-up, then an error that is not ErrPruned.
		mem := faultfs.Mem()
		in := faultfs.New(mem)
		l := tailLog(t, in, 128, 40)
		opens := in.Count(faultfs.OpOpen)
		in.Add(faultfs.Fault{Op: faultfs.OpOpen, N: opens + 1, Mode: faultfs.ModeHook, Hook: func() {
			if err := mem.Remove(filepath.Join("wal", segName(1))); err != nil {
				t.Error(err)
			}
		}})
		_, err := l.ReadFrom(1, nop)
		if err == nil || errors.Is(err, ErrPruned) || !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("read of a lost segment: err = %v, want a not-exist error", err)
		}
		if got := in.Count(faultfs.OpOpen) - opens; got != 2 {
			t.Fatalf("lost segment opened %d times, want the look-up retried once (2)", got)
		}
	})
}

// TestTailPullCostIndependentOfSegmentFill counts file operations: a
// caught-up pull touches no file, and a 64-frame pull from the end of
// the active segment opens one file and reads it once, whether the
// segment holds a thousand frames or fifty thousand.
func TestTailPullCostIndependentOfSegmentFill(t *testing.T) {
	for _, resident := range []int{1_000, 50_000} {
		in := faultfs.New(faultfs.Mem())
		l := tailLog(t, in, 64<<20, resident)
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		opens, reads := in.Count(faultfs.OpOpen), in.Count(faultfs.OpRead)
		if lsns, _, _ := collectFrom(t, l, uint64(resident)+1); len(lsns) != 0 {
			t.Fatalf("caught-up pull delivered %d frames", len(lsns))
		}
		if o, r := in.Count(faultfs.OpOpen)-opens, in.Count(faultfs.OpRead)-reads; o != 0 || r != 0 {
			t.Fatalf("resident %d: caught-up pull cost %d opens and %d reads, want none", resident, o, r)
		}
		lsns, _, _ := collectFrom(t, l, uint64(resident)-63)
		if len(lsns) != 64 {
			t.Fatalf("resident %d: pull delivered %d frames, want 64", resident, len(lsns))
		}
		if o, r := in.Count(faultfs.OpOpen)-opens, in.Count(faultfs.OpRead)-reads; o != 1 || r != 1 {
			t.Fatalf("resident %d: 64-frame pull cost %d opens and %d reads, want 1 and 1", resident, o, r)
		}
	}
}

// TestTailIndexFollowsOpenPruneAndMinLSN checks the index itself: one
// entry per indexStride frames of each segment, the same whether built
// by appends or by Open's scan, trimmed to the files Prune leaves, and
// empty after the MinLSN restart.
func TestTailIndexFollowsOpenPruneAndMinLSN(t *testing.T) {
	fsys := faultfs.Mem()
	opt := Options{Dir: "wal", FS: fsys, SegmentBytes: 100 * (frameHeaderSize + 10), SyncEvery: SyncNever}
	l, _, err := Open(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 450 // 100 frames a segment: entries at frames 0 and 64 of each
	for i := 1; i <= n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var want []indexEntry
	for lsn := uint64(1); lsn <= n; lsn++ {
		seg := (lsn-1)/100*100 + 1
		if (lsn-seg)%indexStride == 0 {
			want = append(want, indexEntry{lsn: lsn, seg: seg, off: int64(lsn-seg) * (frameHeaderSize + 10)})
		}
	}
	if !reflect.DeepEqual(l.index, want) {
		t.Fatalf("index built by appends:\n got %v\nwant %v", l.index, want)
	}

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, _, err = Open(opt, func(uint64, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l.index, want) {
		t.Fatalf("index rebuilt by Open:\n got %v\nwant %v", l.index, want)
	}

	if removed, err := l.Prune(250); err != nil || removed != 2 {
		t.Fatalf("prune removed %d segments, err %v; want 2", removed, err)
	}
	if !reflect.DeepEqual(l.index, want[4:]) {
		t.Fatalf("index after prune:\n got %v\nwant %v", l.index, want[4:])
	}

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	opt.MinLSN = n + 50
	if l, _, err = Open(opt, func(uint64, []byte) {}); err != nil {
		t.Fatal(err)
	}
	defer l.Close() //ssdlint:allow droppederr test cleanup
	if len(l.index) != 0 {
		t.Fatalf("index after the MinLSN restart: %v, want empty", l.index)
	}
	if _, err := l.ReadFrom(n, func(uint64, []byte) error { return nil }); !errors.Is(err, ErrPruned) {
		t.Fatalf("reading below the restart point: err = %v, want ErrPruned", err)
	}
	lsn, err := l.Append([]byte("after"))
	if err != nil || lsn != n+51 {
		t.Fatalf("first append after the restart: lsn %d err %v", lsn, err)
	}
	if lsns, _, next := collectFrom(t, l, lsn); len(lsns) != 1 || next != lsn+1 {
		t.Fatalf("reading the restarted log: %v next %d", lsns, next)
	}
}

// TestTailReadRace runs one appender, one pruner and two readers
// against each other; under -race it proves the index and the reader's
// snapshot of it are properly ordered, and in any mode that every
// reader sees a gapless run of the right payloads.
func TestTailReadRace(t *testing.T) {
	const n = 3000
	for _, fsys := range []faultfs.FS{faultfs.Mem(), faultfs.OS()} {
		dir := "wal"
		if fsys == faultfs.OS() {
			dir = t.TempDir()
		}
		l, _, err := Open(Options{Dir: dir, FS: fsys, SegmentBytes: 1 << 10, SyncEvery: 8, SyncInterval: -1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done)
			for i := 1; i <= n; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("rec-%06d", i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if last := l.LastLSN(); last > 200 {
					if _, err := l.Prune(last - 200); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cursor := uint64(1)
				for cursor <= n {
					before, appended := cursor, l.LastLSN()
					next, err := l.ReadFrom(cursor, func(lsn uint64, payload []byte) error {
						if lsn != cursor {
							return fmt.Errorf("gap: got lsn %d at cursor %d", lsn, cursor)
						}
						if want := fmt.Sprintf("rec-%06d", lsn); string(payload) != want {
							return fmt.Errorf("lsn %d carries %q", lsn, payload)
						}
						cursor++
						return nil
					})
					switch {
					case errors.Is(err, ErrPruned):
						// Fell behind the pruner: rejoin at the tail, which
						// is never pruned.
						if last := l.LastLSN(); last > cursor {
							cursor = last
						}
					case err != nil:
						t.Error(err)
						return
					case next != cursor:
						t.Errorf("next = %d, cursor %d", next, cursor)
						return
					case cursor == before && before <= appended:
						// Everything appended before the call is written
						// through by it, so it must have been delivered.
						t.Errorf("read from %d delivered nothing with %d appended", before, appended)
						return
					}
				}
			}()
		}
		wg.Wait()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTailReadAfterRecoveryDropsUnreachableSegments: when recovery
// drops segments past a gap, appends continue in the last segment it
// kept, at that segment's real size — the offsets the index records for
// them are only right if they do.
func TestTailReadAfterRecoveryDropsUnreachableSegments(t *testing.T) {
	fsys := faultfs.Mem()
	frame := int64(frameHeaderSize + len("rec-000000"))
	opt := Options{Dir: "wal", FS: fsys, SegmentBytes: 100 * frame, SyncEvery: SyncNever}
	l, _, err := Open(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 230; i++ { // segments 1, 101 and 201
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Truncate(filepath.Join("wal", segName(1)), 30*frame); err != nil {
		t.Fatal(err)
	}
	l, stats, err := Open(opt, func(uint64, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //ssdlint:allow droppederr test cleanup
	if stats.Records != 30 || stats.SegmentsDropped != 2 {
		t.Fatalf("recovery kept %d records and dropped %d segments, want 30 and 2", stats.Records, stats.SegmentsDropped)
	}
	for i := 31; i <= 200; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, from := range []uint64{1, 30, 31, 64, 65, 66, 100, 101, 165, 200} {
		lsns, payloads, next := collectFrom(t, l, from)
		if len(lsns) != 200-int(from)+1 || next != 201 {
			t.Fatalf("from %d: delivered %d frames next %d", from, len(lsns), next)
		}
		for i, lsn := range lsns {
			if want := fmt.Sprintf("rec-%06d", lsn); lsn != from+uint64(i) || payloads[i] != want {
				t.Fatalf("from %d: frame %d is lsn %d %q", from, i, lsn, payloads[i])
			}
		}
	}
}
