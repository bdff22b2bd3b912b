package serve

import (
	"errors"
	"reflect"
	"testing"

	"ssdfail/internal/faultfs"
	"ssdfail/internal/trace"
)

// The crash-recovery suite drives the journal through a deterministic
// ~1000-record fleet workload and kills the filesystem at every write
// operation in turn (torn partial write, then every later op fails).
// After each kill the journal is reopened on the surviving bytes and
// must recover exactly the accepted prefix: no accepted record lost,
// no rejected record resurrected, no corruption panic.

const (
	crashDrives = 50
	crashDays   = 20
)

// crashStep is one ingest attempt of the workload, in order.
type crashStep struct {
	id    uint32
	model trace.Model
	rec   trace.DayRecord
	valid bool
}

// crashRec builds the valid daily report for one drive-day with all the
// store's monotonicity invariants satisfied.
func crashRec(drive, day int) trace.DayRecord {
	rec := trace.DayRecord{
		Day: int32(day), Age: int32(day),
		Reads: uint64(100 + drive), Writes: uint64(50 + day), Erases: uint64(day),
		CumReads:  uint64(day*1000 + drive),
		CumWrites: uint64(day*500 + drive),
		CumErases: uint64(day*100 + drive),
		PECycles:  float64(day) * 1.5,

		FactoryBadBlocks: uint32(drive % 7),
		GrownBadBlocks:   uint32(day / 3),
	}
	for k := 0; k < trace.NumErrorKinds; k++ {
		rec.Errors[k] = uint32((drive + day + k) % 3)
		rec.CumErrors[k] = uint64(day*10 + drive + k)
	}
	return rec
}

// crashWorkload returns the full ingest sequence: day-major over the
// fleet, with an invalid attempt (day regression, poisoned counters)
// interleaved before some valid records. Invalid attempts must be
// rejected at validation and must never appear after recovery.
func crashWorkload() []crashStep {
	steps := make([]crashStep, 0, crashDrives*crashDays+crashDrives*crashDays/13+1)
	for day := 0; day < crashDays; day++ {
		for drive := 0; drive < crashDrives; drive++ {
			id := uint32(1000 + drive)
			model := trace.Model(drive % trace.NumModels)
			if day > 0 && (drive+day)%13 == 0 {
				bad := crashRec(drive, day-1) // day regression
				bad.Reads = 0xDEAD
				steps = append(steps, crashStep{id: id, model: model, rec: bad})
			}
			steps = append(steps, crashStep{id: id, model: model, rec: crashRec(drive, day), valid: true})
		}
	}
	return steps
}

func crashJournalOptions(fs faultfs.FS) JournalOptions {
	return JournalOptions{
		Dir:          "/wal",
		FS:           fs,
		SegmentBytes: 8192, // ~39 frames per segment: rotation is exercised
		SyncEvery:    1,
		// A prime cadence staggers snapshots (and the prunes they
		// trigger) across segment boundaries; synchronous so every kill
		// point is deterministic.
		SnapshotEvery: 137,
	}
}

// runUntilCrash feeds steps into j until the WAL fails, returning the
// per-drive accepted records and the index of the first unprocessed
// step (len(steps) when the whole workload fit before the kill).
func runUntilCrash(t *testing.T, j *Journal, steps []crashStep, accepted map[uint32][]trace.DayRecord) int {
	t.Helper()
	for i, st := range steps {
		err := j.Upsert(st.id, st.model, st.rec)
		if err == nil {
			if !st.valid {
				t.Fatalf("invalid record (drive %d day %d) was accepted", st.id, st.rec.Day)
			}
			accepted[st.id] = append(accepted[st.id], st.rec)
			continue
		}
		if errors.Is(err, ErrJournal) {
			if !st.valid {
				t.Fatalf("invalid record (drive %d day %d) reached the WAL: %v", st.id, st.rec.Day, err)
			}
			return i
		}
		if st.valid {
			t.Fatalf("valid record (drive %d day %d) rejected: %v", st.id, st.rec.Day, err)
		}
	}
	return len(steps)
}

// checkRecovered asserts the recovered store holds exactly the accepted
// records — each drive's last two and its exact count — and nothing
// else.
func checkRecovered(t *testing.T, store *Store, steps []crashStep, accepted map[uint32][]trace.DayRecord) {
	t.Helper()
	if got, want := store.Len(), len(accepted); got != want {
		t.Fatalf("recovered %d drives, want %d", got, want)
	}
	// The score memo is not durable state: whatever the crashed process
	// had scored, every recovered slot must start stale.
	if got := staleSlots(store); got != store.Len() {
		t.Fatalf("recovered store has %d stale score slots of %d", got, store.Len())
	}
	models := make(map[uint32]trace.Model)
	for _, st := range steps {
		models[st.id] = st.model
	}
	for id, recs := range accepted {
		snap, ok := store.Get(id)
		if !ok {
			t.Fatalf("drive %d lost in recovery (%d accepted records)", id, len(recs))
		}
		if snap.Model != models[id] {
			t.Fatalf("drive %d recovered model %v, want %v", id, snap.Model, models[id])
		}
		if snap.Reports != uint32(len(recs)) {
			t.Fatalf("drive %d recovered a count of %d reports, %d were accepted", id, snap.Reports, len(recs))
		}
		if want := recs[max(0, len(recs)-2):]; !reflect.DeepEqual(snap.Recent, want) {
			t.Fatalf("drive %d recovered records diverge:\n got %+v\nwant %+v", id, snap.Recent, want)
		}
	}
}

// countWriteOps dry-runs the workload to learn how many filesystem
// write operations it performs, i.e. how many kill points exist.
func countWriteOps(t *testing.T, steps []crashStep, options func(faultfs.FS) JournalOptions) int {
	t.Helper()
	inj := faultfs.New(faultfs.Mem())
	j, err := OpenJournal(NewStore(4, 0), options(inj))
	if err != nil {
		t.Fatalf("dry run open: %v", err)
	}
	accepted := make(map[uint32][]trace.DayRecord)
	if stop := runUntilCrash(t, j, steps, accepted); stop != len(steps) {
		t.Fatalf("dry run crashed at step %d with no faults armed", stop)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("dry run close: %v", err)
	}
	return inj.Count(faultfs.OpWrite)
}

// TestCrashRecoveryEveryKillPoint is the crash-consistency property
// test: for every write operation the workload performs, crash there
// (a torn partial write, then total failure), recover, and verify the
// accepted prefix survived intact. Periodically it also resumes the
// workload on the recovered journal and re-verifies the final state,
// proving a recovered log accepts writes and stays consistent.
func TestCrashRecoveryEveryKillPoint(t *testing.T) {
	steps := crashWorkload()
	writes := countWriteOps(t, steps, crashJournalOptions)
	if writes < len(steps)/2 {
		t.Fatalf("dry run saw only %d write ops for %d steps", writes, len(steps))
	}
	stride := 1
	if testing.Short() {
		stride = 17
	}
	frame := 8 + walRecordBinarySize
	for k := 1; k <= writes; k += stride {
		partial := k % frame // torn frame of every possible length
		base := faultfs.Mem()
		inj := faultfs.New(base)
		inj.Crash(k, partial)

		j, err := OpenJournal(NewStore(4, 0), crashJournalOptions(inj))
		if err != nil {
			t.Fatalf("kill %d: open: %v", k, err)
		}
		accepted := make(map[uint32][]trace.DayRecord)
		stop := runUntilCrash(t, j, steps, accepted)
		j.Close() //nolint:errcheck // the filesystem is dead

		// Recover on the surviving bytes (the raw FS, not the dead
		// injector) into a fresh store.
		store2 := NewStore(4, 0)
		j2, err := OpenJournal(store2, crashJournalOptions(base))
		if err != nil {
			t.Fatalf("kill %d (write op, partial %d): recovery failed: %v", k, partial, err)
		}
		rec := j2.Recovery()
		if rec.Malformed != 0 {
			t.Fatalf("kill %d: %d malformed WAL records on recovery", k, rec.Malformed)
		}
		if rec.Duplicates != 0 {
			t.Fatalf("kill %d: %d duplicate WAL records on recovery", k, rec.Duplicates)
		}
		checkRecovered(t, store2, steps, accepted)

		// Every so often, prove the recovered journal still works:
		// finish the workload on it and verify the complete fleet.
		if k%101 == 0 && stop < len(steps) {
			if n := runUntilCrash(t, j2, steps[stop:], accepted); n != len(steps[stop:]) {
				t.Fatalf("kill %d: resumed ingest crashed at step %d", k, stop+n)
			}
			if err := j2.Close(); err != nil {
				t.Fatalf("kill %d: closing resumed journal: %v", k, err)
			}
			store3 := NewStore(4, 0)
			if _, err := OpenJournal(store3, crashJournalOptions(base)); err != nil {
				t.Fatalf("kill %d: reopening after resume: %v", k, err)
			}
			checkRecovered(t, store3, steps, accepted)
		} else if err := j2.Close(); err != nil {
			t.Fatalf("kill %d: closing recovered journal: %v", k, err)
		}
	}
}

// crashGroupCommitOptions configures the journal like a production
// deployment's group-commit policy: the background syncer issues one
// fsync per 8 appends and frames sit in the in-process buffer between
// boundaries. The timer flush is disabled so kill points stay
// reproducible.
func crashGroupCommitOptions(fs faultfs.FS) JournalOptions {
	o := crashJournalOptions(fs)
	o.SyncEvery = 8
	o.SyncInterval = -1
	return o
}

// runUntilCrashOrdered is runUntilCrash, but returns the indices of the
// accepted steps in acceptance (= WAL) order instead of a per-drive map.
func runUntilCrashOrdered(t *testing.T, j *Journal, steps []crashStep) (acceptedIdx []int, stop int) {
	t.Helper()
	for i, st := range steps {
		err := j.Upsert(st.id, st.model, st.rec)
		if err == nil {
			if !st.valid {
				t.Fatalf("invalid record (drive %d day %d) was accepted", st.id, st.rec.Day)
			}
			acceptedIdx = append(acceptedIdx, i)
			continue
		}
		if errors.Is(err, ErrJournal) {
			if !st.valid {
				t.Fatalf("invalid record (drive %d day %d) reached the WAL: %v", st.id, st.rec.Day, err)
			}
			return acceptedIdx, i
		}
		if st.valid {
			t.Fatalf("valid record (drive %d day %d) rejected: %v", st.id, st.rec.Day, err)
		}
	}
	return acceptedIdx, len(steps)
}

// TestCrashRecoveryGroupCommitKillPoints drives the default-style
// asynchronous group-commit path (SyncEvery > 1: background syncer,
// buffered frames) through every kill point. Acknowledged records may
// legitimately be lost up to the durability contract, so the property
// is prefix consistency rather than exact recovery: the recovered state
// must equal the snapshot plus the surviving WAL prefix — some prefix
// of the accepted sequence with no holes, no resurrected rejects — and,
// critically, records accepted AFTER recovery must survive a subsequent
// clean reopen. That last assertion is the regression test for a
// snapshot whose LSN ran ahead of the durable WAL tail: post-recovery
// appends would silently reuse snapshot-covered LSNs and vanish on the
// next boot.
func TestCrashRecoveryGroupCommitKillPoints(t *testing.T) {
	steps := crashWorkload()
	writes := countWriteOps(t, steps, crashGroupCommitOptions)
	if writes < 20 {
		t.Fatalf("dry run saw only %d write ops for %d steps", writes, len(steps))
	}
	stride := 1
	if testing.Short() {
		stride = 13
	}
	frame := 8 + walRecordBinarySize
	for k := 1; k <= writes; k += stride {
		partial := k % (frame + 11) // tear batches mid-frame and past frame boundaries
		base := faultfs.Mem()
		inj := faultfs.New(base)
		inj.Crash(k, partial)

		j, err := OpenJournal(NewStore(4, 0), crashGroupCommitOptions(inj))
		if err != nil {
			t.Fatalf("kill %d: open: %v", k, err)
		}
		acceptedIdx, stop := runUntilCrashOrdered(t, j, steps)
		j.Close() //nolint:errcheck // the filesystem is dead

		store2 := NewStore(4, 0)
		j2, err := OpenJournal(store2, crashGroupCommitOptions(base))
		if err != nil {
			t.Fatalf("kill %d (partial %d): recovery failed: %v", k, partial, err)
		}
		rec := j2.Recovery()
		if rec.Malformed != 0 || rec.Duplicates != 0 || rec.SnapshotCorrupt {
			t.Fatalf("kill %d: recovery reported damage: %+v", k, rec)
		}
		// LSN n is the nth accepted record, so snapshot coverage plus
		// replayed tail records is exactly how much of the accepted
		// sequence survived.
		m := int(rec.SnapshotLSN + rec.Replayed)
		if m > len(acceptedIdx) {
			t.Fatalf("kill %d: recovered %d records but only %d were accepted", k, m, len(acceptedIdx))
		}
		state := make(map[uint32][]trace.DayRecord)
		for _, si := range acceptedIdx[:m] {
			state[steps[si].id] = append(state[steps[si].id], steps[si].rec)
		}
		checkRecovered(t, store2, steps, state)

		// Re-ingest everything past the surviving prefix (skipping the
		// workload's deliberately-invalid probes, whose validity was
		// defined against the pre-crash state) and prove the recovered
		// journal keeps those records across one more clean reboot.
		resumeFrom := stop
		if m < len(acceptedIdx) {
			resumeFrom = acceptedIdx[m]
		}
		for i := resumeFrom; i < len(steps); i++ {
			st := steps[i]
			if !st.valid {
				continue
			}
			if err := j2.Upsert(st.id, st.model, st.rec); err != nil {
				t.Fatalf("kill %d: re-ingest of step %d after recovery: %v", k, i, err)
			}
			state[st.id] = append(state[st.id], st.rec)
		}
		if err := j2.Close(); err != nil {
			t.Fatalf("kill %d: closing recovered journal: %v", k, err)
		}
		store3 := NewStore(4, 0)
		j3, err := OpenJournal(store3, crashGroupCommitOptions(base))
		if err != nil {
			t.Fatalf("kill %d: reopening after resumed ingest: %v", k, err)
		}
		checkRecovered(t, store3, steps, state)
		if err := j3.Close(); err != nil {
			t.Fatalf("kill %d: final close: %v", k, err)
		}
	}
}

// TestCrashRecoveryAfterCleanShutdown checks the no-fault path: a
// cleanly closed journal recovers byte-for-byte with zero truncations.
func TestCrashRecoveryAfterCleanShutdown(t *testing.T) {
	steps := crashWorkload()
	base := faultfs.Mem()
	j, err := OpenJournal(NewStore(4, 0), crashJournalOptions(base))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	accepted := make(map[uint32][]trace.DayRecord)
	if stop := runUntilCrash(t, j, steps, accepted); stop != len(steps) {
		t.Fatalf("workload crashed at step %d with no faults armed", stop)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	store2 := NewStore(4, 0)
	j2, err := OpenJournal(store2, crashJournalOptions(base))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	rec := j2.Recovery()
	if rec.Truncations != 0 || rec.SegmentsDropped != 0 || rec.Malformed != 0 {
		t.Fatalf("clean shutdown recovery reported damage: %+v", rec)
	}
	if rec.SnapshotLSN == 0 {
		t.Fatalf("no snapshot found after %d records with SnapshotEvery=137", len(steps))
	}
	checkRecovered(t, store2, steps, accepted)
}

// TestCrashRecoveredStoreStartsFullyStale pins what recovery means for
// the score column: a process that had scored its whole fleet crashes,
// and the store rebuilt from its snapshot and WAL tail carries no memo —
// the first pass re-scores every drive (same bits as a from-scratch
// pass), the second is answered from the column.
func TestCrashRecoveredStoreStartsFullyStale(t *testing.T) {
	pred := loadPredictor(t, fixModelPath)
	base := faultfs.Mem()
	store := NewStore(4, 0)
	j, err := OpenJournal(store, crashJournalOptions(base))
	if err != nil {
		t.Fatal(err)
	}
	steps := crashWorkload()
	accepted := make(map[uint32][]trace.DayRecord)
	if stop := runUntilCrash(t, j, steps, accepted); stop != len(steps) {
		t.Fatalf("workload stopped at step %d with no faults armed", stop)
	}
	sc := NewScorer(2)
	if _, stats := sweepRanked(sc, store, pred, 1, 0, 0, 0); stats.Scored != crashDrives {
		t.Fatalf("warming pass: %+v, want %d scored", stats, crashDrives)
	}
	if got := staleSlots(store); got != 0 {
		t.Fatalf("%d slots stale after the warming pass", got)
	}
	// Crash: the journal is never closed. SyncEvery 1 made every accepted
	// record durable, and SnapshotEvery put most of them in a snapshot,
	// so recovery takes both the Restore and the replay path.
	store2 := NewStore(4, 0)
	j2, err := OpenJournal(store2, crashJournalOptions(base))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close() //nolint:errcheck // read-only from here on
	if rec := j2.Recovery(); rec.SnapshotLSN == 0 || rec.Replayed == 0 {
		t.Fatalf("recovery %+v exercised only one of snapshot load and WAL replay", rec)
	}
	checkRecovered(t, store2, steps, accepted) // includes: every slot stale
	want, _ := fromScratch(store2, pred, 0, 0, 0)
	got, stats := sweepRanked(sc, store2, pred, 1, 0, 0, 0)
	requireSameRanking(t, "first pass after recovery", got, want)
	if stats.Hits != 0 || stats.Scored != crashDrives {
		t.Fatalf("first pass after recovery: %+v, want %d scored and no hits", stats, crashDrives)
	}
	got, stats = sweepRanked(sc, store2, pred, 1, 0, 0, 0)
	requireSameRanking(t, "second pass after recovery", got, want)
	if stats.Hits != crashDrives || stats.Scored != 0 {
		t.Fatalf("second pass after recovery: %+v, want %d hits", stats, crashDrives)
	}
}

// TestCrashJournalErrorLeavesStoreConsistent pins the ordering
// guarantee the handlers rely on: when the WAL append fails, the store
// is unchanged and the same record can be retried after recovery
// without tripping the duplicate-day validation.
func TestCrashJournalErrorLeavesStoreConsistent(t *testing.T) {
	base := faultfs.Mem()
	inj := faultfs.New(base)
	opt := crashJournalOptions(inj)
	store := NewStore(4, 0)
	j, err := OpenJournal(store, opt)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := j.Upsert(1, 0, crashRec(1, 0)); err != nil {
		t.Fatalf("first upsert: %v", err)
	}
	inj.Add(faultfs.Fault{Op: faultfs.OpWrite, N: inj.Count(faultfs.OpWrite) + 1, Mode: faultfs.ModeFail})
	if err := j.Upsert(1, 0, crashRec(1, 1)); !errors.Is(err, ErrJournal) {
		t.Fatalf("upsert with failing WAL returned %v, want ErrJournal", err)
	}
	snap, _ := store.Get(1)
	if len(snap.Recent) != 1 || snap.Recent[0].Day != 0 {
		t.Fatalf("failed journal append mutated the store: %+v", snap.Recent)
	}
	j.Close() //nolint:errcheck // poisoned log

	// Reopen and retry the same record: it must be accepted.
	store2 := NewStore(4, 0)
	j2, err := OpenJournal(store2, crashJournalOptions(base))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer j2.Close()
	if err := j2.Upsert(1, 0, crashRec(1, 1)); err != nil {
		t.Fatalf("retrying record after recovery: %v", err)
	}
	snap2, _ := store2.Get(1)
	if len(snap2.Recent) != 2 {
		t.Fatalf("recovered drive has %d records, want 2", len(snap2.Recent))
	}
}

// BenchmarkIngestInMemory and BenchmarkIngestWAL compare the ingest hot
// path without and with durability at the default fsync policy (one
// fsync per 64 appends) on the real filesystem. The acceptance bar for
// the durability layer is staying within 2x of in-memory ingest.
func BenchmarkIngestInMemory(b *testing.B) {
	store := NewStore(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drive := i % 256
		rec := crashRec(drive, i/256)
		if err := store.Upsert(uint32(drive), trace.Model(drive%trace.NumModels), rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIngestWAL(b *testing.B) {
	j, err := OpenJournal(NewStore(0, 0), JournalOptions{
		Dir:           b.TempDir(),
		SnapshotEvery: -1, // isolate the WAL append cost
	})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drive := i % 256
		rec := crashRec(drive, i/256)
		if err := j.Upsert(uint32(drive), trace.Model(drive%trace.NumModels), rec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := j.Sync(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(j.WALStats().Fsyncs)/float64(b.N), "fsyncs/op")
}
