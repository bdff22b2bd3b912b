package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"ssdfail/internal/faultfs"
	"ssdfail/internal/trace"
	"ssdfail/internal/wal"
)

// snapFeed ingests a fleet of drives day-major into a journal: record i
// is drive i%drives on day i/drives, always valid.
type snapFeed struct {
	t      *testing.T
	j      *Journal
	drives int
	next   int
}

func (f *snapFeed) ingest(n int) {
	f.t.Helper()
	for ; n > 0; n-- {
		drive, day := f.next%f.drives, f.next/f.drives
		f.next++ // first: a snapshot this record triggers may re-enter ingest from a fault hook
		if err := f.j.Upsert(uint32(1000+drive), trace.Model(drive%trace.NumModels), crashRec(drive, day)); err != nil {
			f.t.Fatalf("record %d (drive %d day %d): %v", f.next-1, drive, day, err)
		}
	}
}

func (f *snapFeed) expect(what string, snapshots, snapLSN, last uint64) {
	f.t.Helper()
	if got := f.j.WALStats().Snapshots; got != snapshots {
		f.t.Fatalf("%s: %d snapshots written, want %d", what, got, snapshots)
	}
	if f.j.SnapshotLSN() != snapLSN || f.j.LastLSN() != last || f.j.Tail() != last-snapLSN {
		f.t.Fatalf("%s: snapshot lsn %d, last lsn %d, tail %d; want %d, %d, %d",
			what, f.j.SnapshotLSN(), f.j.LastLSN(), f.j.Tail(), snapLSN, last, last-snapLSN)
	}
}

// TestSnapshotTriggerCountsRecordsAcceptedDuringSnapshot: records
// accepted while a snapshot is being written are not covered by its LSN,
// so they are part of the tail the next trigger measures. (A counter
// zeroed when the snapshot finished forgot them.)
func TestSnapshotTriggerCountsRecordsAcceptedDuringSnapshot(t *testing.T) {
	inj := faultfs.New(faultfs.Mem())
	// 10 drives × 2 retained reports stay below the floor of 100, so the
	// floor is the trigger.
	j, err := OpenJournal(NewStore(4, 0), JournalOptions{Dir: "/wal", FS: inj, SyncEvery: 1, SnapshotEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	feed := &snapFeed{t: t, j: j, drives: 10}
	// The snapshot is held at its rename while 30 more records arrive.
	inj.Add(faultfs.Fault{Op: faultfs.OpRename, N: 1, Mode: faultfs.ModeHook, Hook: func() { feed.ingest(30) }})
	feed.ingest(99)
	feed.expect("below the floor", 0, 0, 99)
	feed.ingest(1)
	feed.expect("first snapshot, 30 records accepted meanwhile", 1, 100, 130)
	feed.ingest(69)
	feed.expect("tail of 99", 1, 100, 199)
	feed.ingest(1)
	feed.expect("tail of 100", 2, 200, 200)
}

// TestSnapshotTriggerCountsReplayedTail: after a restart the tail is
// what recovery replayed, not zero, so the first snapshot after boot
// comes when the log has grown by the trigger since the last snapshot —
// not since the boot.
func TestSnapshotTriggerCountsReplayedTail(t *testing.T) {
	mem := faultfs.Mem()
	open := func() *Journal {
		j, err := OpenJournal(NewStore(4, 0), JournalOptions{Dir: "/wal", FS: mem, SyncEvery: 1, SnapshotEvery: 100})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	feed := &snapFeed{t: t, j: open(), drives: 10}
	feed.ingest(60)
	feed.expect("before the restart", 0, 0, 60)
	if err := feed.j.Close(); err != nil {
		t.Fatal(err)
	}

	feed.j = open()
	if rec := feed.j.Recovery(); rec.Replayed != 60 || rec.SnapshotLSN != 0 {
		t.Fatalf("recovery %+v, want 60 records replayed and no snapshot", rec)
	}
	feed.expect("after the restart", 0, 0, 60)
	feed.ingest(39)
	feed.expect("tail of 99, 60 of it replayed", 0, 0, 99)
	feed.ingest(1)
	feed.expect("tail of 100", 1, 100, 100)
	feed.ingest(50)
	if err := feed.j.Close(); err != nil {
		t.Fatal(err)
	}

	// With a snapshot on disk the tail starts at its LSN.
	feed.j = open()
	defer feed.j.Close()
	if rec := feed.j.Recovery(); rec.SnapshotLSN != 100 || rec.Replayed != 50 {
		t.Fatalf("recovery %+v, want snapshot lsn 100 and 50 records replayed", rec)
	}
	feed.expect("restart on a snapshot", 0, 100, 150)
	feed.ingest(50)
	feed.expect("tail of 100 after the second restart", 1, 200, 200)
}

// byteCountFS counts the bytes written to snapshot files and to
// everything else (the log's segments).
type byteCountFS struct {
	faultfs.FS
	snap, log atomic.Int64
}

func (c *byteCountFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil || flag&(os.O_WRONLY|os.O_RDWR) == 0 {
		return f, err
	}
	n := &c.log
	if strings.HasPrefix(filepath.Base(name), "snapshot") {
		n = &c.snap
	}
	return &byteCountFile{File: f, n: n}, nil
}

type byteCountFile struct {
	faultfs.File
	n *atomic.Int64
}

func (f *byteCountFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.n.Add(int64(n))
	return n, err
}

// TestSnapshotWriteAmplificationBounded is the trigger's cost property:
// whatever the fleet's shape, snapshots write no more than about what
// the log does (each record goes once to the log and, amortised, at most
// once to a snapshot), and their number follows the trigger's rule: it
// grows with records ingested over records retained and only with the
// logarithm of records ingested over the floor.
func TestSnapshotWriteAmplificationBounded(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5a9))
		drives, days, every := 20+rng.IntN(300), 2+rng.IntN(30), 16<<rng.IntN(4)
		dayMajor := seed%2 == 0
		t.Run(fmt.Sprintf("seed=%d/drives=%d/days=%d/every=%d/dayMajor=%v", seed, drives, days, every, dayMajor), func(t *testing.T) {
			fs := &byteCountFS{FS: faultfs.Mem()}
			store := NewStore(8, 0)
			j, err := OpenJournal(store, JournalOptions{Dir: "/wal", FS: fs, SyncEvery: wal.SyncNever, SnapshotEvery: every})
			if err != nil {
				t.Fatal(err)
			}
			total := drives * days
			for i := 0; i < total; i++ {
				drive, day := i%drives, i/drives
				if !dayMajor {
					drive, day = i/days, i%days
				}
				if err := j.Upsert(uint32(1000+drive), trace.Model(drive%trace.NumModels), crashRec(drive, day)); err != nil {
					t.Fatal(err)
				}
			}
			snaps := int(j.WALStats().Snapshots)
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			var full int64
			if info, err := fs.Stat(filepath.Join("/wal", wal.SnapshotName)); err == nil {
				full = info.Size()
			} else if total >= every {
				t.Fatalf("%d records past a floor of %d and no snapshot: %v", total, every, err)
			}
			if got, limit := fs.snap.Load(), 2*fs.log.Load()+full; got > limit {
				t.Errorf("snapshots wrote %d bytes; the log wrote %d, one full snapshot is %d: want <= %d",
					got, fs.log.Load(), full, limit)
			}
			// The trigger's rule replayed over the schedule: a snapshot at
			// the record where the tail first reaches max(every, records
			// retained), two per drive that has sent two.
			want, last, retainedNow := 0, 0, 0
			sent := make([]int, drives)
			for i := 0; i < total; i++ {
				drive := i % drives
				if !dayMajor {
					drive = i / days
				}
				if sent[drive]++; sent[drive] <= 2 {
					retainedNow++
				}
				if i+1-last >= max(every, retainedNow) {
					want, last = want+1, i+1
				}
			}
			if snaps != want {
				t.Errorf("%d snapshots, the trigger's rule gives %d", snaps, want)
			}
			// Whatever the order, a drive's retained reports grow at least in
			// proportion ρ = retained/total to the records sent, so each gap
			// t_{k+1} − t_k ≥ ρ·t_{k+1}: the snapshot positions grow
			// geometrically from the floor, and their number is logarithmic
			// in records over the floor, scaled by records over retained.
			retained := store.Records()
			rho := float64(retained) / float64(total)
			limit := 1 + int(max(0, math.Log(float64(total)/float64(every))/-math.Log1p(-rho)))
			if snaps > limit {
				t.Errorf("%d snapshots for %d records with %d retained and a floor of %d, want <= %d (the old cadence: %d)",
					snaps, total, retained, every, limit, total/every)
			}
			if j.WALStats().SnapshotBytes != uint64(fs.snap.Load()) {
				t.Errorf("SnapshotBytes = %d, the filesystem saw %d", j.WALStats().SnapshotBytes, fs.snap.Load())
			}
		})
	}
}

// snapFleet fills a store with drives × days reports (day-major) behind a
// journal on fs that never snapshots by itself and keeps the whole log
// in one segment, so the log alone can rebuild the store.
func snapFleet(t testing.TB, fs faultfs.FS, shards, drives, days int) (*Journal, JournalOptions) {
	t.Helper()
	opt := JournalOptions{Dir: "/wal", FS: fs, SyncEvery: wal.SyncNever, SnapshotEvery: -1, SegmentBytes: 1 << 30}
	j, err := OpenJournal(NewStore(shards, 0), opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < drives*days; i++ {
		drive, day := i%drives, i/drives
		if err := j.Upsert(uint32(1000+drive), trace.Model(drive%trace.NumModels), crashRec(drive, day)); err != nil {
			t.Fatal(err)
		}
	}
	return j, opt
}

// TestSnapshotAllocationsIndependentOfFleet: a snapshot streams out of
// the report column through one reused section buffer, so what it
// allocates does not grow with the number of drives, encoding a section
// into a buffer of its size allocates nothing, and neither does an
// upsert into a drive that already holds two reports.
func TestSnapshotAllocationsIndependentOfFleet(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	allocs := func(drives int) float64 {
		// Writes are discarded: the in-memory filesystem would otherwise
		// count its own file growth.
		j, _ := snapFleet(t, discardSnapshotFS{faultfs.Mem()}, 0, drives, 9)
		defer j.Close()
		if err := j.Snapshot(); err != nil { // sizes the section buffer
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if err := j.Snapshot(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(200), allocs(20000)
	t.Logf("snapshot allocations: %.0f for 200 drives, %.0f for 20000", small, large)
	if large > small+8 || large > 64 {
		t.Fatalf("a snapshot of 20000 drives allocates %.0f objects, of 200 drives %.0f: want a constant", large, small)
	}

	j, _ := snapFleet(t, faultfs.Mem(), 1, 500, 3)
	defer j.Close()
	sh := &j.Store().shards[0]
	buf, _ := sh.appendSnapshotSection(nil, 0)
	if n := testing.AllocsPerRun(10, func() { buf, _ = sh.appendSnapshotSection(buf[:0], 0) }); n != 0 {
		t.Fatalf("encoding a section into a buffer of its size allocates %.0f objects, want 0", n)
	}

	store := NewStore(0, 0)
	for day := 0; day < 8; day++ {
		if err := store.Upsert(7, trace.MLCA, crashRec(7, day)); err != nil {
			t.Fatal(err)
		}
	}
	day := 8
	if n := testing.AllocsPerRun(100, func() {
		if err := store.Upsert(7, trace.MLCA, crashRec(7, day)); err != nil {
			t.Fatal(err)
		}
		day++
	}); n != 0 {
		t.Fatalf("an upsert into a full slot allocates %.0f objects, want 0", n)
	}
}

// discardSnapshotFS drops what is written to snapshot files.
type discardSnapshotFS struct{ faultfs.FS }

func (d discardSnapshotFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := d.FS.OpenFile(name, flag, perm)
	if err == nil && flag&os.O_WRONLY != 0 && strings.HasPrefix(filepath.Base(name), "snapshot") {
		return discardFile{f}, nil
	}
	return f, err
}

type discardFile struct{ faultfs.File }

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }

// snapshotFile is a parsed sectioned snapshot, for tests that damage one
// in ways its checksums do not catch.
type snapshotFile struct {
	lsn      uint64
	sections [][]byte
}

func parseSnapshotFile(t *testing.T, b []byte) snapshotFile {
	t.Helper()
	if len(b) < 16 || string(b[:8]) != "SSDWSNP2" {
		t.Fatalf("not a sectioned snapshot: %q", b[:min(len(b), 8)])
	}
	sf := snapshotFile{lsn: binary.LittleEndian.Uint64(b[8:])}
	for b = b[16:]; ; {
		n := int(binary.LittleEndian.Uint32(b))
		if n == 0 {
			return sf
		}
		sf.sections = append(sf.sections, append([]byte(nil), b[8:8+n]...))
		b = b[8+n:]
	}
}

// bytes re-encodes the file with every checksum and the trailer right.
func (sf snapshotFile) bytes() []byte {
	table := crc32.MakeTable(crc32.Castagnoli)
	b := binary.LittleEndian.AppendUint64([]byte("SSDWSNP2"), sf.lsn)
	for _, s := range sf.sections {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(s, table))
		b = append(b, s...)
	}
	t0 := len(b)
	b = binary.LittleEndian.AppendUint32(b, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(sf.sections)))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(b)+12))
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[t0:], table))
}

func readFile(t *testing.T, fs faultfs.FS, path string) []byte {
	t.Helper()
	info, err := fs.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, info.Size())
	if _, err := f.ReadAt(b, 0); err != nil {
		t.Fatal(err)
	}
	return b
}

func writeFile(t *testing.T, fs faultfs.FS, path string, b []byte) {
	t.Helper()
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCorruptInputsFallBackToWAL damages a sectioned snapshot
// in every way recovery must survive — at the container level, where a
// checksum or the trailer catches it, and inside a section whose
// checksum is right — and requires each to be reported, to leave nothing
// of the snapshot in the store, and to end in the state the log alone
// rebuilds.
func TestSnapshotCorruptInputsFallBackToWAL(t *testing.T) {
	mem := faultfs.Mem()
	const drives, days = 3000, 3
	j, opt := snapFleet(t, mem, 4, drives, days)
	if err := j.Snapshot(); err != nil {
		t.Fatal(err)
	}
	want := j.Store().Drives()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(opt.Dir, wal.SnapshotName)
	good := readFile(t, mem, path)
	parsed := parseSnapshotFile(t, good)
	if len(parsed.sections) < 4 {
		t.Fatalf("fixture snapshot has %d sections, want several per shard", len(parsed.sections))
	}
	if !reflect.DeepEqual(parsed.bytes(), good) {
		t.Fatal("the test's encoder does not reproduce the file the journal wrote")
	}
	secondSection := 16 + 8 + len(parsed.sections[0])

	raw := func(mutate func([]byte) []byte) func() []byte {
		return func() []byte { return mutate(append([]byte(nil), good...)) }
	}
	resealed := func(section int, mutate func([]byte) []byte) func() []byte {
		return func() []byte {
			sf := parseSnapshotFile(t, good)
			sf.sections[section] = mutate(sf.sections[section])
			return sf.bytes()
		}
	}
	cases := []struct {
		name string
		file func() []byte
	}{
		{"bad section checksum", raw(func(b []byte) []byte { b[secondSection+8+100] ^= 1; return b })},
		{"truncated at a section boundary", raw(func(b []byte) []byte { return b[:secondSection] })},
		{"truncated inside a section", raw(func(b []byte) []byte { return b[:secondSection+500] })},
		{"missing trailer", raw(func(b []byte) []byte { return b[:len(b)-20] })},
		{"trailing garbage", raw(func(b []byte) []byte { return append(b, "garbage"...) })},
		{"hostile section length", raw(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[secondSection:], 0xfffffff0); return b })},
		{"a section dropped", func() []byte {
			sf := parseSnapshotFile(t, good)
			sf.sections = sf.sections[1:]
			b := sf.bytes()
			binary.LittleEndian.PutUint32(b[len(b)-16:], uint32(len(sf.sections)+1)) // the count the writer recorded
			return b
		}},
		{"hostile drive count", resealed(1, func(s []byte) []byte { binary.LittleEndian.PutUint32(s[4:], 0xffffffff); return s })},
		{"drive count one short", resealed(1, func(s []byte) []byte {
			binary.LittleEndian.PutUint32(s[4:], binary.LittleEndian.Uint32(s[4:])-1)
			return s
		})},
		{"hostile record count", resealed(0, func(s []byte) []byte { binary.LittleEndian.PutUint16(s[8+9:], 0xffff); return s })},
		{"three records retained", resealed(0, func(s []byte) []byte {
			binary.LittleEndian.PutUint32(s[8+5:], 3)
			binary.LittleEndian.PutUint16(s[8+9:], 3)
			return s
		})},
		{"more records retained than reports", resealed(0, func(s []byte) []byte { binary.LittleEndian.PutUint32(s[8+5:], 1); return s })},
		{"unknown record flags", resealed(1, func(s []byte) []byte { s[8+snapshotV2DriveHead+dayRecordBinarySize-1] |= 4; return s })},
		{"unknown model", resealed(2, func(s []byte) []byte { s[8+4] = byte(trace.NumModels); return s })},
		{"unknown section version", resealed(0, func(s []byte) []byte { binary.LittleEndian.PutUint32(s, 9); return s })},
		{"section cut mid-record", resealed(3, func(s []byte) []byte { return s[:len(s)-5] })},
		{"section shorter than its header", resealed(0, func(s []byte) []byte { return s[:5] })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			writeFile(t, mem, path, tc.file())
			store := NewStore(4, 0)
			j, err := OpenJournal(store, opt)
			if err != nil {
				t.Fatalf("recovery failed outright: %v", err)
			}
			defer j.Close()
			rec := j.Recovery()
			if !rec.SnapshotCorrupt || rec.SnapshotLSN != 0 || rec.SnapshotDrives != 0 {
				t.Fatalf("recovery %+v, want the snapshot reported corrupt and unused", rec)
			}
			if rec.Replayed != drives*days || rec.Duplicates != 0 {
				t.Fatalf("recovery %+v, want all %d records replayed from the log onto an empty store", rec, drives*days)
			}
			if got := store.Drives(); !reflect.DeepEqual(got, want) {
				t.Fatalf("store rebuilt from the log differs from the one snapshotted (%d vs %d drives)", len(got), len(want))
			}
		})
	}

	// The control: the undamaged file loads, and the log's tail is all
	// that is replayed.
	writeFile(t, mem, path, good)
	store := NewStore(4, 0)
	j2, err := OpenJournal(store, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rec := j2.Recovery(); rec.SnapshotCorrupt || rec.SnapshotDrives != drives || rec.SnapshotLSN != drives*days || rec.Replayed != 0 {
		t.Fatalf("recovery from the intact snapshot: %+v", rec)
	}
	if got := store.Drives(); !reflect.DeepEqual(got, want) {
		t.Fatal("store loaded from the intact snapshot differs from the one snapshotted")
	}

	// A hostile count costs nothing: the walk ends where the bytes do.
	hostile := append([]byte(nil), parsed.sections[0]...)
	binary.LittleEndian.PutUint32(hostile[4:], 0xffffffff)
	if !raceEnabled {
		if n := testing.AllocsPerRun(10, func() {
			if _, err := scanSnapshotSection(hostile, nil); err == nil {
				t.Fatal("hostile drive count accepted")
			}
		}); n > 8 {
			t.Fatalf("checking a section that claims 4 G drives allocates %.0f objects", n)
		}
	}
}

// TestSnapshotV1GoldenStillLoads: testdata/snapshot_v1.snap was written
// by the last release of the single-payload format (12 drives, 1–7 days
// each — 43 records, so LSN 43 — at history 4, so a drive holds its last
// min(days, 4) reports). It must keep loading, into any shard count, to
// every drive's last two reports with a count of the reports it holds —
// the same scoring input, so the same scores — and the next snapshot
// replaces it with the current format.
func TestSnapshotV1GoldenStillLoads(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "snapshot_v1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if string(golden[:8]) != "SSDWSNP1" {
		t.Fatalf("golden starts %q: it must stay in the old format", golden[:8])
	}
	const goldenHistory = 4
	want := NewStore(4, 0)
	for drive := 0; drive < 12; drive++ {
		days := drive%7 + 1
		for day := 0; day < days; day++ {
			if err := want.Upsert(uint32(1000+drive), trace.Model(drive%trace.NumModels), crashRec(drive, day)); err != nil {
				t.Fatal(err)
			}
		}
		d, _ := want.Get(uint32(1000 + drive))
		d.Reports = uint32(min(days, goldenHistory))
		want.Restore(d)
	}
	wantUnits := want.ScoreUnits(0)
	sort.Slice(wantUnits, func(i, j int) bool { return wantUnits[i].ID < wantUnits[j].ID })
	pred := loadPredictor(t, fixModelPath)
	wantScores, _ := fromScratch(want, pred, 0, 0, 0)
	for _, shards := range []int{1, 4, 64} {
		mem := faultfs.Mem()
		if err := mem.MkdirAll("/wal", 0o755); err != nil {
			t.Fatal(err)
		}
		writeFile(t, mem, filepath.Join("/wal", wal.SnapshotName), golden)
		store := NewStore(shards, 0)
		j, err := OpenJournal(store, JournalOptions{Dir: "/wal", FS: mem, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		rec := j.Recovery()
		if rec.SnapshotCorrupt || rec.SnapshotDrives != 12 || rec.SnapshotLSN != 43 {
			t.Fatalf("shards=%d: recovery %+v", shards, rec)
		}
		if got := store.Drives(); !reflect.DeepEqual(got, want.Drives()) {
			t.Fatalf("shards=%d: loaded store differs from the one the golden was written from:\n got %+v\nwant %+v", shards, got, want.Drives())
		}
		units := store.ScoreUnits(0)
		sort.Slice(units, func(i, j int) bool { return units[i].ID < units[j].ID })
		if !reflect.DeepEqual(units, wantUnits) {
			t.Fatalf("shards=%d: scoring input differs:\n got %+v\nwant %+v", shards, units, wantUnits)
		}
		got, _ := fromScratch(store, pred, 0, 0, 0)
		requireSameRanking(t, fmt.Sprintf("shards=%d", shards), got, wantScores)
		if store.Records() != want.Records() || staleSlots(store) != store.Len() {
			t.Fatalf("shards=%d: %d records (want %d), %d stale slots of %d", shards, store.Records(), want.Records(), staleSlots(store), store.Len())
		}
		if err := j.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if b := readFile(t, mem, filepath.Join("/wal", wal.SnapshotName)); string(b[:8]) != "SSDWSNP2" {
			t.Fatalf("shards=%d: the rewritten snapshot starts %q", shards, b[:8])
		}
	}
}

// refStore is a slice-per-drive store that keeps every report: the
// reference the pair column's observable behaviour is compared with.
// A drive's view is its last two reports and its count.
type refStore struct {
	drives map[uint32]*refDrive
}

type refDrive struct {
	model   trace.Model
	reports uint32
	all     []trace.DayRecord // every report since the drive was last restored or loaded
}

func (r *refStore) upsert(id uint32, model trace.Model, rec trace.DayRecord) bool {
	d, ok := r.drives[id]
	if ok {
		if d.model != model {
			return false
		}
		if n := len(d.all); n > 0 && (rec.Day <= d.all[n-1].Day || rec.Day-d.all[n-1].Day != rec.Age-d.all[n-1].Age) {
			return false
		}
	} else {
		d = &refDrive{model: model}
		r.drives[id] = d
	}
	d.all = append(d.all, rec)
	d.reports++
	return true
}

// restore installs recent with the count Restore documents.
func (r *refStore) restore(id uint32, model trace.Model, reports uint32, recent []trace.DayRecord) {
	r.drives[id] = &refDrive{model: model, reports: max(reports, uint32(len(recent))), all: append([]trace.DayRecord(nil), recent...)}
}

func (r *refStore) view(id uint32, d *refDrive) DriveSnapshot {
	snap := DriveSnapshot{ID: id, Model: d.model, Reports: d.reports}
	if n := len(d.all); n > 0 {
		snap.Recent = append([]trace.DayRecord(nil), d.all[max(0, n-2):]...)
	}
	return snap
}

func (r *refStore) all() []DriveSnapshot {
	out := make([]DriveSnapshot, 0, len(r.drives))
	for id, d := range r.drives {
		out = append(out, r.view(id, d))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (r *refStore) units(since int32) []ScoreUnit {
	var out []ScoreUnit
	for _, d := range r.all() {
		n := len(d.Recent)
		if n == 0 || d.Recent[n-1].Day < since {
			continue
		}
		u := ScoreUnit{ID: d.ID, Model: d.Model, Last: d.Recent[n-1]}
		if n > 1 {
			u.Prev, u.HasPrev = d.Recent[n-2], true
		}
		out = append(out, u)
	}
	return out
}

// v1Sections encodes the reference as version-1 sections written by a
// store of the given history depth: each drive's last history reports,
// at most perSection drives a section.
func (r *refStore) v1Sections(history, perSection int) [][]byte {
	var sections [][]byte
	all := r.all()
	for lo := 0; lo < len(all); lo += perSection {
		chunk := all[lo:min(len(all), lo+perSection)]
		b := binary.LittleEndian.AppendUint32(nil, 1)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(chunk)))
		for _, d := range chunk {
			recs := r.drives[d.ID].all
			recs = recs[max(0, len(recs)-history):]
			b = binary.LittleEndian.AppendUint32(b, d.ID)
			b = append(b, byte(d.Model))
			b = binary.LittleEndian.AppendUint16(b, uint16(len(recs)))
			for i := range recs {
				b = appendDayRecordBinary(b, &recs[i])
			}
		}
		sections = append(sections, b)
	}
	return sections
}

// TestStorePairMatchesSlicePerDrive drives the pair-column store and the
// keep-everything reference with the same random upserts (valid, stale
// and wrong-model), restores (longer than two reports, shorter, empty,
// with counts above and below what they hold), snapshot → reload round
// trips, and loads of version-1 snapshots written at depths up to 8, and
// compares everything the store exposes: Get, Drives, ScoreUnits, Len,
// Records.
func TestStorePairMatchesSlicePerDrive(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x4129))
		store := NewStore(1<<rng.IntN(4), 0)
		ref := &refStore{drives: map[uint32]*refDrive{}}
		nextDay := map[uint32]int{}
		const ids = 40
		check := func(step int) {
			t.Helper()
			want := ref.all()
			records := 0
			for _, d := range want {
				records += len(d.Recent)
			}
			if store.Len() != len(want) || store.Records() != records {
				t.Fatalf("seed %d step %d: %d drives %d records, want %d and %d", seed, step, store.Len(), store.Records(), len(want), records)
			}
			if got := store.Drives(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: Drives diverge:\n got %+v\nwant %+v", seed, step, got, want)
			}
			since := int32(rng.IntN(12))
			units := store.ScoreUnits(since)
			sort.Slice(units, func(i, j int) bool { return units[i].ID < units[j].ID })
			if wantUnits := ref.units(since); !reflect.DeepEqual(units, wantUnits) && len(units)+len(wantUnits) > 0 {
				t.Fatalf("seed %d step %d: ScoreUnits(%d) diverge:\n got %+v\nwant %+v", seed, step, since, units, wantUnits)
			}
			id := uint32(1000 + rng.IntN(ids+2))
			g, ok := store.Get(id)
			w, wok := ref.drives[id]
			if ok != wok || (ok && !reflect.DeepEqual(g, ref.view(id, w))) {
				t.Fatalf("seed %d step %d: Get(%d) = %+v, %v; want %+v, %v", seed, step, id, g, ok, w, wok)
			}
		}
		for step := 0; step < 1500; step++ {
			drive := rng.IntN(ids)
			id, model := uint32(1000+drive), trace.Model(drive%trace.NumModels)
			switch op := rng.IntN(100); {
			case op < 78: // a report: mostly the drive's next, sometimes stale or of the wrong model
				day := nextDay[id]
				if op >= 70 {
					if day = rng.IntN(day + 1); rng.IntN(2) == 0 {
						model = trace.Model((drive + 1) % trace.NumModels)
					}
				}
				rec := crashRec(drive, day)
				err, want := store.Upsert(id, model, rec), ref.upsert(id, model, rec)
				if (err == nil) != want {
					t.Fatalf("seed %d step %d: drive %d day %d model %v: store says %v, the reference accepts=%v", seed, step, id, day, model, err, want)
				}
				if want {
					nextDay[id] = day + 1
				}
			case op < 90: // restore: a window of the drive's days, maybe longer than two, maybe empty
				n := rng.IntN(5)
				first := rng.IntN(4)
				d := DriveSnapshot{ID: id, Model: model, Reports: uint32(rng.IntN(12))}
				for day := first; day < first+n; day++ {
					d.Recent = append(d.Recent, crashRec(drive, day))
				}
				store.Restore(d)
				ref.restore(id, model, d.Reports, d.Recent)
				nextDay[id] = first + n
			case op < 96: // snapshot the columns, load them into a fresh store with another shard count
				var sections [][]byte
				if _, err := store.appendSnapshotSections(nil, func(s []byte) error {
					sections = append(sections, append([]byte(nil), s...))
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				store = NewStore(1<<rng.IntN(4), 0)
				for _, s := range sections {
					if _, err := scanSnapshotSection(s, store.loadDrive); err != nil {
						t.Fatalf("seed %d step %d: reloading a section: %v", seed, step, err)
					}
				}
			default: // a version-1 snapshot of the reference written at depth 2..8
				history := 2 + rng.IntN(7)
				sections := ref.v1Sections(history, 1+rng.IntN(ids))
				store = NewStore(1<<rng.IntN(4), 0)
				for _, s := range sections {
					if _, err := scanSnapshotSection(s, store.loadDrive); err != nil {
						t.Fatalf("seed %d step %d: loading a version-1 section: %v", seed, step, err)
					}
				}
				for id, d := range ref.drives {
					recs := d.all[max(0, len(d.all)-history):]
					ref.restore(id, d.model, uint32(len(recs)), recs)
				}
			}
			if step%25 == 0 {
				check(step)
			}
		}
		check(1500)
	}
}

// FuzzSnapshotSection feeds arbitrary bytes to the section decoder the
// way recovery does: a checking scan, then a load into a store. Every
// input is either rejected with wal.ErrSnapshotCorrupt or decodes, and a
// decoded version-2 section re-encodes to the same bytes — unless it
// names one drive twice or runs past the size a writer cuts a section
// at, which no writer does. The seed corpus is a section of each version
// and the payload of testdata/snapshot_v1.snap.
func FuzzSnapshotSection(f *testing.F) {
	store := NewStore(1, 0)
	for drive := 0; drive < 4; drive++ {
		for day := 0; day < drive; day++ {
			if err := store.Upsert(uint32(1000+drive), trace.Model(drive%trace.NumModels), crashRec(drive, day)); err != nil {
				f.Fatal(err)
			}
		}
	}
	store.Restore(DriveSnapshot{ID: 7, Model: trace.MLCB, Reports: 9, Recent: []trace.DayRecord{crashRec(7, 3)}})
	v2, _ := store.shards[0].appendSnapshotSection(nil, 0)
	f.Add(v2)
	ref := &refStore{drives: map[uint32]*refDrive{}}
	for drive := 0; drive < 3; drive++ {
		for day := 0; day < 2+drive; day++ {
			ref.upsert(uint32(1000+drive), trace.Model(drive%trace.NumModels), crashRec(drive, day))
		}
	}
	f.Add(ref.v1Sections(8, 3)[0])
	golden, err := os.ReadFile(filepath.Join("testdata", "snapshot_v1.snap"))
	if err != nil {
		f.Fatal(err)
	}
	// SSDWSNP1 | lsn u64 | payload length u32 | crc32c u32 | payload
	f.Add(golden[24 : 24+binary.LittleEndian.Uint32(golden[16:])])

	f.Fuzz(func(t *testing.T, b []byte) {
		n, err := scanSnapshotSection(b, nil)
		if err != nil {
			if !errors.Is(err, wal.ErrSnapshotCorrupt) {
				t.Fatalf("rejected with %v, which does not wrap wal.ErrSnapshotCorrupt", err)
			}
			return
		}
		store := NewStore(1, 0)
		seen := map[uint32]bool{}
		records := 0
		m, err := scanSnapshotSection(b, func(id uint32, model trace.Model, reports uint32, recs []byte) {
			seen[id] = true
			store.loadDrive(id, model, reports, recs)
			d, _ := store.Get(id)
			if held := len(recs) / dayRecordBinarySize; d.Model != model || d.Reports < reports || len(d.Recent) != min(held, 2) {
				t.Fatalf("drive %d loaded as %+v from model %v, %d reports, %d records", id, d, model, reports, held)
			}
			records += len(d.Recent)
		})
		if err != nil || m != n {
			t.Fatalf("the loading scan returned %d, %v after the checking scan accepted %d drives", m, err, n)
		}
		if store.Len() != len(seen) {
			t.Fatalf("%d distinct drives loaded into %d", len(seen), store.Len())
		}
		if binary.LittleEndian.Uint32(b) != storeSnapshotVersion || len(seen) != n || len(b) > snapshotSectionBytes {
			return
		}
		if store.Records() != records {
			t.Fatalf("store retains %d records, the section held %d", store.Records(), records)
		}
		if got, next := store.shards[0].appendSnapshotSection(nil, 0); next != n || !bytes.Equal(got, b) {
			t.Fatalf("re-encoded %d of %d drives as\n%x\nfrom\n%x", next, n, got, b)
		}
	})
}
