package serve

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"ssdfail/internal/core"
	"ssdfail/internal/remedy"
	"ssdfail/internal/sparepool"
	"ssdfail/internal/trace"
)

func loadPredictor(t testing.TB, path string) *core.Predictor {
	t.Helper()
	pred, err := core.LoadPredictor(path)
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

// fixtureModelFiles returns the bytes of the two fixture forests, for
// tests that hot-swap between them through a private model path.
func fixtureModelFiles(t *testing.T) [2][]byte {
	t.Helper()
	var files [2][]byte
	for i, p := range []string{fixModelPath, fixAltModelPath} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = data
	}
	return files
}

// staleSlots counts the slots of the store's score column whose memo is
// marked stale.
func staleSlots(s *Store) int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for j := range sh.slots {
			if sh.slots[j].stamp == 0 {
				n++
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// shardsGathering counts the shards in which a pass of version over the
// drives reporting on or after since finds a stale slot to re-score: the
// shards that pass walks whatever their memo holds.
func shardsGathering(s *Store, version int, since int32) int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for j := range sh.slots {
			if p := sh.pair(j); sh.slots[j].stamp != uint32(version) && p.n > 0 && p.last.Day >= since {
				n++
				break
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// fromScratch is the pass the sweep replaced and the reference it is
// held against: snapshot every drive, score every drive, sort the fleet.
func fromScratch(store *Store, pred *core.Predictor, since int32, threshold float64, k int) (ranked []Scored, fleet int) {
	units := store.ScoreUnits(since)
	return Rank(NewScorer(1).Score(pred, units), threshold, k), len(units)
}

// sweepRanked runs one sweep into a top-k selector, as the watchlist
// handler does.
func sweepRanked(sc *Scorer, store *Store, pred *core.Predictor, version int, since int32, threshold float64, k int) ([]Scored, SweepStats) {
	top := topK{k: k}
	stats := sc.Sweep(store, pred, version, since, threshold, top.offer)
	return top.ranked(), stats
}

// requireSameRanking compares two rankings entry by entry, scores by
// their bits.
func requireSameRanking(t *testing.T, what string, got, want []Scored) {
	t.Helper()
	if diff := rankingDiff(got, want); diff != "" {
		t.Fatalf("%s: %s", what, diff)
	}
}

// rankingDiff describes the first difference between two rankings, or
// returns "" when they are the same entry for entry, score bits included.
func rankingDiff(got, want []Scored) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d entries, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Model != w.Model || g.Day != w.Day || g.Age != w.Age ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			return fmt.Sprintf("entry %d = %+v (score bits %#x), want %+v (score bits %#x)",
				i, g, math.Float64bits(g.Score), w, math.Float64bits(w.Score))
		}
	}
	return ""
}

// upsertFleetDay feeds the fixture fleet's report `offset` steps back
// from each drive's last one.
func upsertFleetDay(t *testing.T, store *Store, offset int) int {
	t.Helper()
	n := 0
	for di := range fixFleet.Drives {
		d := &fixFleet.Drives[di]
		j := len(d.Days) - 1 - offset
		if j < 0 {
			continue
		}
		if err := store.Upsert(d.ID, d.Model, d.Days[j]); err != nil {
			t.Fatal(err)
		}
		n++
	}
	return n
}

// TestSweepMemoLifecycle walks one store through everything that makes
// a slot fresh or stale and checks, at each step, both the answer
// (bit-equal to the from-scratch pass) and how it was produced (hits
// versus re-scored drives, and shards answered from their memo).
func TestSweepMemoLifecycle(t *testing.T) {
	predA, predB := loadPredictor(t, fixModelPath), loadPredictor(t, fixAltModelPath)
	store := NewStore(8, 0)
	upsertFleetDay(t, store, 2)
	fleet := upsertFleetDay(t, store, 1)
	sc := NewScorer(2)
	shards := len(store.shards)

	// check runs each operating point twice. The first pass follows a
	// pass at another operating point, so no shard memo matches it. The
	// repeat finds every shard memoized except those the first pass
	// re-scored drives in: their write-back moved gen, and the repeat's
	// walk of them is what memoizes them.
	check := func(step string, pred *core.Predictor, version int, since int32, wantHits, wantScored int) {
		t.Helper()
		gathering := shardsGathering(store, version, since)
		for _, c := range []struct {
			threshold float64
			k         int
		}{{0, 0}, {0.9, 50}, {0.2, 7}} {
			want, wantFleet := fromScratch(store, pred, since, c.threshold, c.k)
			for rep := 0; rep < 2; rep++ {
				what := fmt.Sprintf("%s (threshold %v, k %d, pass %d)", step, c.threshold, c.k, rep+1)
				got, stats := sweepRanked(sc, store, pred, version, since, c.threshold, c.k)
				requireSameRanking(t, what, got, want)
				if stats.Fleet() != wantFleet {
					t.Fatalf("%s: fleet %d, want %d", what, stats.Fleet(), wantFleet)
				}
				wantMemo := 0
				if rep == 1 {
					wantMemo = shards - gathering
				}
				if stats.Hits != wantHits || stats.Scored != wantScored || stats.ShardsMemo != wantMemo {
					t.Fatalf("%s: %d hits, %d scored, %d shards from memo, want %d, %d, %d",
						what, stats.Hits, stats.Scored, stats.ShardsMemo, wantHits, wantScored, wantMemo)
				}
				// Whatever was stale has been written back: the other
				// passes of this step are all hits.
				wantHits, wantScored = wantHits+wantScored, 0
			}
			gathering = 0
		}
	}
	// memoPass repeats the last operating point of a check, with one
	// more expectation on how many shards answer from their memo.
	memoPass := func(step string, wantScored, wantMemo int) {
		t.Helper()
		want, _ := fromScratch(store, predA, 0, 0.2, 7)
		got, stats := sweepRanked(sc, store, predA, 1, 0, 0.2, 7)
		requireSameRanking(t, step, got, want)
		if stats.Fleet() != fleet || stats.Scored != wantScored || stats.ShardsMemo != wantMemo {
			t.Fatalf("%s: %+v, want fleet %d, %d scored, %d shards from memo", step, stats, fleet, wantScored, wantMemo)
		}
	}

	if got := staleSlots(store); got != fleet {
		t.Fatalf("%d of %d freshly ingested slots are stale", got, fleet)
	}
	check("cold pass", predA, 1, 0, 0, fleet)
	if got := staleSlots(store); got != 0 {
		t.Fatalf("%d slots still stale after a cold pass", got)
	}
	check("warm pass", predA, 1, 0, fleet, 0)

	// Reads and rejected reports leave every shard memo standing; one
	// Restore takes down its own shard's memo and no other.
	store.Drives()
	store.ScoreUnits(0)
	d0 := &fixFleet.Drives[0]
	if err := store.Upsert(d0.ID, d0.Model, d0.Days[0]); err == nil {
		t.Fatalf("drive %d: replayed day accepted", d0.ID)
	}
	memoPass("after reads and a rejected report", 0, shards)
	snap, _ := store.Get(d0.ID)
	store.Restore(snap)
	memoPass("after one restore", 1, shards-1)
	memoPass("after the restored drive's write-back", 0, shards-1)
	memoPass("settled", 0, shards)

	// A new report re-scores exactly its drive; a rejected one nothing.
	touched := 0
	for di := range fixFleet.Drives {
		d := &fixFleet.Drives[di]
		if len(d.Days) < 3 || di%9 != 0 {
			continue
		}
		if err := store.Upsert(d.ID, d.Model, d.Days[len(d.Days)-1]); err != nil {
			t.Fatal(err)
		}
		touched++
	}
	for di := range fixFleet.Drives {
		d := &fixFleet.Drives[di]
		if len(d.Days) >= 3 && di%9 == 1 {
			if err := store.Upsert(d.ID, d.Model, d.Days[len(d.Days)-2]); err == nil {
				t.Fatalf("drive %d: replayed day accepted", d.ID)
			}
		}
	}
	if got := staleSlots(store); got != touched {
		t.Fatalf("%d stale slots after %d accepted reports", got, touched)
	}
	check("after new reports", predA, 1, 0, fleet-touched, touched)

	// Another model version trusts none of version 1's stamps, and
	// version 1 none of version 2's.
	check("model swapped", predB, 2, 0, 0, fleet)
	check("model swapped back", predA, 1, 0, 0, fleet)

	// Restore invalidates the slot and may change the score (no previous
	// report any more).
	var restored uint32
	for di := range fixFleet.Drives {
		if d := &fixFleet.Drives[di]; len(d.Days) >= 3 {
			restored = d.ID
			break
		}
	}
	snap, _ = store.Get(restored)
	snap.Recent = snap.Recent[len(snap.Recent)-1:]
	store.Restore(snap)
	check("after restore", predA, 1, 0, fleet-1, 1)

	// Drives whose latest report is older than since are not part of the
	// pass, fresh or stale; a stale one stays stale.
	days := make([]int32, 0, fleet)
	for _, u := range store.ScoreUnits(0) {
		days = append(days, u.Last.Day)
	}
	sort.Slice(days, func(a, b int) bool { return days[a] < days[b] })
	since := days[len(days)/2]
	inRange := len(store.ScoreUnits(since))
	if inRange == 0 || inRange == fleet {
		t.Fatalf("since=%d keeps %d of %d drives; the fixture should split", since, inRange, fleet)
	}
	check("warm pass with since", predA, 1, since, inRange, 0)
	check("cold pass with since", predB, 3, since, 0, inRange)
	check("rest of the fleet after a since pass", predB, 3, 0, inRange, fleet-inRange)

	defer func() {
		if recover() == nil {
			t.Fatal("Sweep accepted version 0, the stale stamp")
		}
	}()
	sc.Sweep(store, predA, 0, 0, 0, func(Scored) {})
}

// TestSweepFromMemosAllocatesNothing pins a warm pass over a store that
// has not changed, every shard answered from its memo, at zero
// allocations, as the walk it stands in for is.
func TestSweepFromMemosAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	pred := loadPredictor(t, fixModelPath)
	store := NewStore(8, 0)
	upsertFleetDay(t, store, 2)
	fleet := upsertFleetDay(t, store, 1)
	sc := NewScorer(2)
	emitted := 0
	emit := func(Scored) { emitted++ }
	var stats SweepStats
	// Threshold 0 emits every drive, so every memo has entries to copy.
	pass := func() { stats = sc.Sweep(store, pred, 1, 0, 0, emit) }
	pass() // cold: scores and writes back
	pass() // walks every shard and memoizes it
	if n := testing.AllocsPerRun(100, pass); n != 0 {
		t.Fatalf("a pass answered from memos allocates %v times, want 0", n)
	}
	if stats.ShardsMemo != len(store.shards) || stats.Hits != fleet || stats.Scored != 0 {
		t.Fatalf("warm pass %+v, want all %d shards from memo and %d hits", stats, len(store.shards), fleet)
	}
	if emitted != 103*fleet {
		t.Fatalf("%d entries emitted over 103 passes of %d drives", emitted, fleet)
	}
}

// TestConcurrentSweepsMatchTheirOwnReference runs passes at two model
// versions and two thresholds at once, two goroutines per operating
// point, so shard memos are written and read across passes that share
// or differ in their tag, while another goroutine keeps invalidating
// slots through Restore and loadDrive without changing any report. Every
// pass must still emit exactly its own operating point's from-scratch
// ranking. Run it under -race.
func TestConcurrentSweepsMatchTheirOwnReference(t *testing.T) {
	preds := [2]*core.Predictor{loadPredictor(t, fixModelPath), loadPredictor(t, fixAltModelPath)}
	thresholds := [2]float64{0, 0.5}
	store := NewStore(8, 0)
	upsertFleetDay(t, store, 2)
	fleet := upsertFleetDay(t, store, 1)
	var want [2][2][]Scored
	for v := range preds {
		for ti, thr := range thresholds {
			want[v][ti], _ = fromScratch(store, preds[v], 0, thr, 0)
		}
	}
	snaps := store.Drives()
	sc := NewScorer(2)

	passes := 40
	if testing.Short() {
		passes = 10
	}
	var sweepers, churn sync.WaitGroup
	var memoShards atomic.Int64
	stop := make(chan struct{})
	churn.Add(1)
	go func() {
		defer churn.Done()
		var recs []byte
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			d := snaps[i%len(snaps)]
			if i%2 == 0 {
				store.Restore(d)
				continue
			}
			recs = recs[:0]
			for j := range d.Recent {
				recs = trace.AppendDayRecord(recs, &d.Recent[j])
			}
			store.loadDrive(d.ID, d.Model, d.Reports, recs)
		}
	}()
	for g := 0; g < 8; g++ {
		v, ti := g%2, (g/2)%2
		sweepers.Add(1)
		go func() {
			defer sweepers.Done()
			for p := 0; p < passes; p++ {
				got, stats := sweepRanked(sc, store, preds[v], v+1, 0, thresholds[ti], 0)
				if diff := rankingDiff(got, want[v][ti]); diff != "" {
					t.Errorf("version %d threshold %v pass %d: %s", v+1, thresholds[ti], p, diff)
					return
				}
				if stats.Fleet() != fleet {
					t.Errorf("version %d threshold %v pass %d: fleet %d, want %d", v+1, thresholds[ti], p, stats.Fleet(), fleet)
					return
				}
				memoShards.Add(int64(stats.ShardsMemo))
			}
		}()
	}
	sweepers.Wait()
	close(stop)
	churn.Wait()
	if t.Failed() {
		return
	}
	// Settled: a pass re-scores what the churn left stale, the next
	// walks the shards that write-back moved and memoizes them, and the
	// third is answered from memos alone.
	for p := 0; p < 3; p++ {
		got, stats := sweepRanked(sc, store, preds[1], 2, 0, thresholds[1], 0)
		requireSameRanking(t, "settled", got, want[1][1])
		if p == 2 && (stats.ShardsMemo != len(store.shards) || stats.Hits != fleet) {
			t.Fatalf("settled pass %+v, want all %d shards from memo", stats, len(store.shards))
		}
	}
	t.Logf("%d shards answered from memo during the concurrent passes", memoShards.Load())
}

// TestSweepFlushesInChunks covers a cold pass over more stale drives
// than one flush holds, so re-scoring and write-back run several times
// within one sweep, and slots grow past their first allocation.
func TestSweepFlushesInChunks(t *testing.T) {
	pred := loadPredictor(t, fixModelPath)
	store := NewStore(4, 0)
	drives := 2*sweepFlushUnits + 300
	for day := 0; day < 2; day++ {
		for d := 0; d < drives; d++ {
			if err := store.Upsert(uint32(d), trace.Model(d%trace.NumModels), crashRec(d, day)); err != nil {
				t.Fatal(err)
			}
		}
	}
	sc := NewScorer(0)
	want, _ := fromScratch(store, pred, 0, 0, 0)
	got, stats := sweepRanked(sc, store, pred, 1, 0, 0, 0)
	requireSameRanking(t, "cold chunked pass", got, want)
	if stats.Scored != drives || stats.Hits != 0 {
		t.Fatalf("cold pass: %+v, want %d scored", stats, drives)
	}
	got, stats = sweepRanked(sc, store, pred, 1, 0, 0, 0)
	requireSameRanking(t, "warm pass", got, want)
	if stats.Scored != 0 || stats.Hits != drives {
		t.Fatalf("warm pass: %+v, want %d hits", stats, drives)
	}
}

// propDrive is one fixture drive's progress through the property test:
// Days[first:next] have been offered to the server.
type propDrive struct {
	d    *trace.Drive
	next int
	in   bool // at least one report accepted
}

// TestSweepEquivalenceProperty interleaves, from a seed, everything that
// can touch the score column — first reports, next-day reports, rejected
// reports, Restore, a shard's snapshot reloaded through loadDrive, model
// reloads, passes straight through the scorer at two more model versions
// taken in turn — with watchlist and remedy-evaluate calls at changing
// since and threshold, and after every pass compares the answer (items,
// order, fleet_size, score bits, remediation decisions) with a
// from-scratch ScoreUnits → Score → Rank over the same store. A
// ten-line model of the stamps predicts how many drives a pass that
// walks every slot re-scores and how many it answers from the column,
// which pins the two counters exactly: a shard answered from its memo
// must count the same. The run must answer some shards from their memo.
func TestSweepEquivalenceProperty(t *testing.T) {
	steps := 500
	if testing.Short() {
		steps = 150
	}
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runSweepProperty(t, seed, steps) })
	}
}

func runSweepProperty(t *testing.T, seed uint64, steps int) {
	rng := rand.New(rand.NewPCG(seed, 0x55d))
	models := fixtureModelFiles(t)
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := os.WriteFile(path, models[0], 0o644); err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, func(c *Config) {
		remedyConfig(1000)(c)
		c.ModelPath = path
		c.Shards = 4
	})
	shards := uint64(len(srv.store.shards))
	// Two versions the registry never reaches, each bound to one of the
	// fixture forests, for passes that go straight to the scorer.
	alts := [2]struct {
		pred    *core.Predictor
		version int
	}{{loadPredictor(t, fixModelPath), 1001}, {loadPredictor(t, fixAltModelPath), 1002}}
	var altSince int32
	altThreshold := 0.0
	memoShards := uint64(0)
	pool, err := sparepool.NewPool(1000)
	if err != nil {
		t.Fatal(err)
	}
	refEngine, err := remedy.NewEngine(*srv.cfg.RemedyPolicy, pool, nil)
	if err != nil {
		t.Fatal(err)
	}

	const window = 12
	var drives []*propDrive
	for di := range fixFleet.Drives {
		if d := &fixFleet.Drives[di]; len(d.Days) >= window {
			drives = append(drives, &propDrive{d: d, next: len(d.Days) - window})
		}
	}
	// The reference model of the memo: the version each drive's slot is
	// stamped with (0 = stale) and the day of its latest report.
	stamp := map[uint32]int{}
	lastDay := map[uint32]int32{}

	ingest := func(pd *propDrive, j int) error {
		st := srv.acquireBinState()
		defer srv.releaseBinState(st)
		st.json.recs = []IngestRecord{WireRecord(pd.d.ID, pd.d.Model, &pd.d.Days[j])}
		if res := srv.ingestBatch(context.Background(), 1, &st.json, st); res.accepted != 1 {
			return fmt.Errorf("not accepted: %+v", st.errs)
		}
		return nil
	}
	accept := func(pd *propDrive) {
		if pd.next == len(pd.d.Days) {
			return
		}
		if err := ingest(pd, pd.next); err != nil {
			t.Fatalf("drive %d day index %d rejected: %v", pd.d.ID, pd.next, err)
		}
		stamp[pd.d.ID], lastDay[pd.d.ID] = 0, pd.d.Days[pd.next].Day
		pd.next++
		pd.in = true
	}
	pick := func(in bool) *propDrive {
		for tries := 0; tries < 64; tries++ {
			if pd := drives[rng.IntN(len(drives))]; pd.in == in {
				return pd
			}
		}
		return nil
	}
	// expectPass advances the stamp model over one pass and returns the
	// counter deltas it predicts.
	expectPass := func(version int, since int32) (hits, scored uint64) {
		for id, day := range lastDay {
			switch {
			case day < since:
			case stamp[id] == version:
				hits++
			default:
				scored++
				stamp[id] = version
			}
		}
		return hits, scored
	}
	checkCounters := func(what string, hits0, scored0, shards0, hits, scored uint64) {
		t.Helper()
		if got := srv.memoHits.Value() - hits0; got != hits {
			t.Fatalf("%s: %d memo hits, want %d", what, got, hits)
		}
		if got := srv.scoredDrives.Value() - scored0; got != scored {
			t.Fatalf("%s: %d drives scored, want %d", what, got, scored)
		}
		got := srv.memoShards.Value() - shards0
		if got > shards {
			t.Fatalf("%s: %d of %d shards answered from their memo", what, got, shards)
		}
		memoShards += got
	}
	// medianSince is a since that splits the fleet.
	medianSince := func() int32 {
		if len(lastDay) == 0 {
			return 0
		}
		days := make([]int32, 0, len(lastDay))
		for _, d := range lastDay {
			days = append(days, d)
		}
		sort.Slice(days, func(a, b int) bool { return days[a] < days[b] })
		return days[len(days)/2]
	}

	for i := 0; i < 20; i++ {
		accept(drives[rng.IntN(len(drives))])
	}
	loaded := 0 // index into models of the bytes being served
	for step := 0; step < steps; step++ {
		what := fmt.Sprintf("step %d", step)
		switch op := rng.IntN(112); {
		case op < 28: // next-day report
			if pd := pick(true); pd != nil {
				accept(pd)
			}
		case op < 42: // first report of a new drive
			if pd := pick(false); pd != nil {
				accept(pd)
			}
		case op < 48: // replayed day: rejected, must not touch the memo
			if pd := pick(true); pd != nil {
				if err := ingest(pd, pd.next-1); err == nil {
					t.Fatalf("%s: drive %d replayed day accepted", what, pd.d.ID)
				}
			}
		case op < 56: // restore a shortened history
			pd := pick(true)
			if pd == nil {
				break
			}
			snap, _ := srv.store.Get(pd.d.ID)
			if n := len(snap.Recent); n >= 2 && rng.IntN(2) == 0 {
				// Roll the drive back one report.
				snap.Recent = snap.Recent[:n-1]
				pd.next--
				lastDay[pd.d.ID] = snap.Recent[n-2].Day
			} else {
				// Forget everything but the latest report.
				snap.Recent = snap.Recent[n-1:]
			}
			srv.store.Restore(snap)
			stamp[pd.d.ID] = 0
		case op < 62: // hot swap, to the other model or the same bytes
			loaded = rng.IntN(2)
			if err := os.WriteFile(path, models[loaded], 0o644); err != nil {
				t.Fatal(err)
			}
			if resp, body := postJSON(t, ts.URL+"/v1/model/reload", nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: reload status %d: %s", what, resp.StatusCode, body)
			}
		case op < 86: // watchlist
			pred, info, _ := srv.registry.Current()
			var since int32
			if rng.IntN(2) == 0 {
				since = medianSince()
			}
			threshold := []float64{0, 0.05, 0.5, 0.9}[rng.IntN(4)]
			k := []int{0, 1, 5, 50, 1000}[rng.IntN(5)]
			want, wantFleet := fromScratch(srv.store, pred, since, threshold, k)
			hits0, scored0, shards0 := srv.memoHits.Value(), srv.scoredDrives.Value(), srv.memoShards.Value()
			var wl struct {
				ModelVersion int `json:"model_version"`
				FleetSize    int `json:"fleet_size"`
				Count        int `json:"count"`
				Items        []struct {
					DriveID uint32  `json:"drive_id"`
					Model   string  `json:"model"`
					Score   float64 `json:"score"`
					Day     int32   `json:"day"`
					Age     int32   `json:"age"`
				} `json:"items"`
			}
			url := fmt.Sprintf("%s/v1/watchlist?threshold=%v&k=%d&since=%d", ts.URL, threshold, k, since)
			if resp := getJSON(t, url, &wl); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: watchlist status %d", what, resp.StatusCode)
			}
			what += fmt.Sprintf(" watchlist(threshold %v, k %d, since %d, model %d v%d)", threshold, k, since, loaded, info.Version)
			if wl.ModelVersion != info.Version || wl.FleetSize != wantFleet || wl.Count != len(want) {
				t.Fatalf("%s: version %d fleet_size %d count %d, want %d %d %d",
					what, wl.ModelVersion, wl.FleetSize, wl.Count, info.Version, wantFleet, len(want))
			}
			got := make([]Scored, len(wl.Items))
			for i, it := range wl.Items {
				m, err := trace.ParseModel(it.Model)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				got[i] = Scored{ID: it.DriveID, Model: m, Score: it.Score, Day: it.Day, Age: it.Age}
			}
			requireSameRanking(t, what, got, want)
			hits, scored := expectPass(info.Version, since)
			checkCounters(what, hits0, scored0, shards0, hits, scored)
		case op < 100: // remediation tick
			pred, info, _ := srv.registry.Current()
			units := srv.store.ScoreUnits(0)
			pass := make([]remedy.Score, len(units))
			for i, sc := range NewScorer(1).Score(pred, units) {
				pass[i] = remedy.Score{DriveID: sc.ID, Model: sc.Model, Score: sc.Score}
			}
			events, err := refEngine.Evaluate(pass, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := toEventJSON(events)
			hits0, scored0, shards0 := srv.memoHits.Value(), srv.scoredDrives.Value(), srv.memoShards.Value()
			resp, body := postJSON(t, ts.URL+"/v1/remedy/evaluate", nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: evaluate status %d: %s", what, resp.StatusCode, body)
			}
			var ev struct {
				Tick         uint64      `json:"tick"`
				ModelVersion int         `json:"model_version"`
				FleetSize    int         `json:"fleet_size"`
				Decisions    []eventJSON `json:"decisions"`
			}
			getJSONBody(t, body, &ev)
			what += " evaluate"
			if ev.Tick != refEngine.Tick() || ev.ModelVersion != info.Version || ev.FleetSize != len(units) {
				t.Fatalf("%s: tick %d version %d fleet_size %d, want %d %d %d",
					what, ev.Tick, ev.ModelVersion, ev.FleetSize, refEngine.Tick(), info.Version, len(units))
			}
			if len(ev.Decisions) != len(want) {
				t.Fatalf("%s: %d decisions, want %d", what, len(ev.Decisions), len(want))
			}
			for i := range want {
				if ev.Decisions[i] != want[i] || math.Float64bits(ev.Decisions[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("%s: decision %d = %+v, want %+v", what, i, ev.Decisions[i], want[i])
				}
			}
			hits, scored := expectPass(info.Version, 0)
			checkCounters(what, hits0, scored0, shards0, hits, scored)
		case op < 106: // reload one shard from its own snapshot sections
			pd := pick(true)
			if pd == nil {
				break
			}
			sh := srv.store.shard(pd.d.ID)
			var sections [][]byte
			sh.mu.RLock()
			for slot := 0; slot < len(sh.slots); {
				var sec []byte
				sec, slot = sh.appendSnapshotSection(nil, slot)
				sections = append(sections, sec)
			}
			sh.mu.RUnlock()
			for _, sec := range sections {
				_, err := scanSnapshotSection(sec, func(id uint32, model trace.Model, reports uint32, recs []byte) {
					srv.store.loadDrive(id, model, reports, recs)
					stamp[id] = 0
				})
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
		default: // a pass at another version, straight through the scorer
			alt := alts[rng.IntN(2)]
			if rng.IntN(2) == 0 { // else the last direct pass's since and threshold again
				altSince = 0
				if rng.IntN(2) == 0 {
					altSince = medianSince()
				}
				altThreshold = []float64{0, 0.5, 0.9}[rng.IntN(3)]
			}
			what += fmt.Sprintf(" sweep(threshold %v, since %d, v%d)", altThreshold, altSince, alt.version)
			want, wantFleet := fromScratch(srv.store, alt.pred, altSince, altThreshold, 0)
			got, stats := sweepRanked(srv.scorer, srv.store, alt.pred, alt.version, altSince, altThreshold, 0)
			requireSameRanking(t, what, got, want)
			hits, scored := expectPass(alt.version, altSince)
			if stats.Fleet() != wantFleet || uint64(stats.Hits) != hits || uint64(stats.Scored) != scored || uint64(stats.ShardsMemo) > shards {
				t.Fatalf("%s: %+v, want fleet %d, %d hits, %d scored", what, stats, wantFleet, hits, scored)
			}
			memoShards += uint64(stats.ShardsMemo)
		}
	}
	if srv.memoHits.Value() == 0 || srv.scoredDrives.Value() == 0 || memoShards == 0 {
		t.Fatalf("the run never exercised every path: %d hits, %d scored, %d shards from memo",
			srv.memoHits.Value(), srv.scoredDrives.Value(), memoShards)
	}
}
