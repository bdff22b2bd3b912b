package serve

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ssdfail/internal/trace"
)

// rec builds a consistent daily report for tests: day and age advance
// together and cumulative counters grow with the day.
func rec(day int32) trace.DayRecord {
	r := trace.DayRecord{
		Day: day, Age: day + 10,
		Reads: 100, Writes: 50, Erases: 10,
		CumReads: uint64(day) * 100, CumWrites: uint64(day) * 50, CumErases: uint64(day) * 10,
		PECycles: float64(day) * 0.5,
	}
	for k := 0; k < trace.NumErrorKinds; k++ {
		r.CumErrors[k] = uint64(day)
	}
	return r
}

// TestStoreUpsertAndHistory: a drive retains its last two reports and
// counts every one it sent.
func TestStoreUpsertAndHistory(t *testing.T) {
	s := NewStore(4, 0)
	for day := int32(1); day <= 5; day++ {
		if err := s.Upsert(7, trace.MLCA, rec(day)); err != nil {
			t.Fatal(err)
		}
		snap, _ := s.Get(7)
		if snap.Reports != uint32(day) || len(snap.Recent) != min(int(day), 2) || snap.Recent[len(snap.Recent)-1] != rec(day) {
			t.Fatalf("after day %d: %d reports, %d retained, last %+v", day, snap.Reports, len(snap.Recent), snap.Recent[len(snap.Recent)-1])
		}
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if s.Records() != 2 {
		t.Fatalf("Records = %d, want 2", s.Records())
	}
	snap, ok := s.Get(7)
	if !ok {
		t.Fatal("drive 7 missing")
	}
	if len(snap.Recent) != 2 {
		t.Fatalf("recent = %d records, want 2", len(snap.Recent))
	}
	for i, want := range []int32{4, 5} {
		if snap.Recent[i].Day != want {
			t.Fatalf("recent[%d].Day = %d, want %d", i, snap.Recent[i].Day, want)
		}
	}
	if _, ok := s.Get(8); ok {
		t.Fatal("nonexistent drive found")
	}
}

func TestStoreRejectsInvariantViolations(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*trace.DayRecord)
		model  trace.Model
		want   string
	}{
		{"stale day", func(r *trace.DayRecord) { r.Day = 5; r.Age = 15 }, trace.MLCA, "not after last"},
		{"day age mismatch", func(r *trace.DayRecord) { r.Age = 99 }, trace.MLCA, "day delta"},
		{"model change", func(r *trace.DayRecord) {}, trace.MLCB, "model changed"},
		{"factory bb change", func(r *trace.DayRecord) { r.FactoryBadBlocks = 9 }, trace.MLCA, "factory bad blocks"},
		{"grown bb decrease", func(r *trace.DayRecord) { r.GrownBadBlocks = 0 }, trace.MLCA, "grown bad blocks"},
		{"pe decrease", func(r *trace.DayRecord) { r.PECycles = 0.1 }, trace.MLCA, "P/E cycles"},
		{"cum ops decrease", func(r *trace.DayRecord) { r.CumReads = 1 }, trace.MLCA, "op counter decreased"},
		{"cum errors decrease", func(r *trace.DayRecord) { r.CumErrors[0] = 0 }, trace.MLCA, "count decreased"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore(1, 4)
			first := rec(5)
			first.GrownBadBlocks = 2
			if err := s.Upsert(1, trace.MLCA, first); err != nil {
				t.Fatal(err)
			}
			next := rec(6)
			next.GrownBadBlocks = 2
			tc.mutate(&next)
			err := s.Upsert(1, tc.model, next)
			if err == nil {
				t.Fatal("violation accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
			// The rejected report must not have replaced the state.
			snap, _ := s.Get(1)
			if got := len(snap.Recent); got != 1 || snap.Recent[0].Day != 5 {
				t.Fatalf("state changed after rejection: %d records, last day %d", got, snap.Recent[0].Day)
			}
		})
	}
}

func TestStoreConcurrentUpserts(t *testing.T) {
	s := NewStore(8, 4)
	const goroutines = 8
	const drivesPer = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < drivesPer; i++ {
				id := uint32(g*drivesPer + i)
				for day := int32(1); day <= 3; day++ {
					if err := s.Upsert(id, trace.MLCD, rec(day)); err != nil {
						panic(fmt.Sprintf("drive %d: %v", id, err))
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != goroutines*drivesPer {
		t.Fatalf("Len = %d, want %d", s.Len(), goroutines*drivesPer)
	}
	units := s.ScoreUnits(0)
	if len(units) != goroutines*drivesPer {
		t.Fatalf("ScoreUnits = %d, want %d", len(units), goroutines*drivesPer)
	}
	for i := range units {
		if units[i].Last.Day != 3 || !units[i].HasPrev || units[i].Prev.Day != 2 {
			t.Fatalf("unit %d: last day %d prev day %d hasPrev %v",
				i, units[i].Last.Day, units[i].Prev.Day, units[i].HasPrev)
		}
	}
}

func TestStoreScoreUnitsSince(t *testing.T) {
	s := NewStore(2, 4)
	if err := s.Upsert(1, trace.MLCA, rec(10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Upsert(2, trace.MLCA, rec(20)); err != nil {
		t.Fatal(err)
	}
	if got := len(s.ScoreUnits(0)); got != 2 {
		t.Fatalf("since 0: %d units, want 2", got)
	}
	units := s.ScoreUnits(15)
	if len(units) != 1 || units[0].ID != 2 {
		t.Fatalf("since 15: got %+v, want only drive 2", units)
	}
	if units[0].HasPrev {
		t.Fatal("single-report drive claims a previous record")
	}
}

// TestStoreHeapPerDriveBounded pins what a resident drive costs: 20k
// drives with ten reports each, measured as the heap the store holds
// after a collection, the way the benchmark's store layer measures it.
// Two reports are 400 bytes; the pair's count, the score slot and the
// drive's map entry are the rest.
func TestStoreHeapPerDriveBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not the store's")
	}
	const drives, days = 20000, 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewStore(0, 0)
	for day := int32(1); day <= days; day++ {
		for id := uint32(0); id < drives; id++ {
			if err := s.Upsert(id, trace.Model(id%uint32(trace.NumModels)), rec(day)); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perDrive := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / drives
	t.Logf("%.0f heap bytes per resident drive", perDrive)
	if s.Len() != drives || s.Records() != 2*drives {
		t.Fatalf("%d drives, %d records retained", s.Len(), s.Records())
	}
	if perDrive > 500 {
		t.Fatalf("a resident drive costs %.0f heap bytes, want <= 500", perDrive)
	}
	runtime.KeepAlive(s)
}
