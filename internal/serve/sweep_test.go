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
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Model != w.Model || g.Day != w.Day || g.Age != w.Age ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			t.Fatalf("%s: entry %d = %+v (score bits %#x), want %+v (score bits %#x)",
				what, i, g, math.Float64bits(g.Score), w, math.Float64bits(w.Score))
		}
	}
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
// versus re-scored drives).
func TestSweepMemoLifecycle(t *testing.T) {
	predA, predB := loadPredictor(t, fixModelPath), loadPredictor(t, fixAltModelPath)
	store := NewStore(8, 0)
	upsertFleetDay(t, store, 2)
	fleet := upsertFleetDay(t, store, 1)
	sc := NewScorer(2)

	check := func(step string, pred *core.Predictor, version int, since int32, wantHits, wantScored int) {
		t.Helper()
		for _, c := range []struct {
			threshold float64
			k         int
		}{{0, 0}, {0.9, 50}, {0.2, 7}} {
			want, wantFleet := fromScratch(store, pred, since, c.threshold, c.k)
			got, stats := sweepRanked(sc, store, pred, version, since, c.threshold, c.k)
			requireSameRanking(t, fmt.Sprintf("%s (threshold %v, k %d)", step, c.threshold, c.k), got, want)
			if stats.Fleet() != wantFleet {
				t.Fatalf("%s: fleet %d, want %d", step, stats.Fleet(), wantFleet)
			}
			if stats.Hits != wantHits || stats.Scored != wantScored {
				t.Fatalf("%s: %d hits and %d scored, want %d and %d", step, stats.Hits, stats.Scored, wantHits, wantScored)
			}
			// Whatever was stale has been written back: the other
			// operating points of this step are all hits.
			wantHits, wantScored = wantHits+wantScored, 0
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
	snap, _ := store.Get(restored)
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
// reports, Restore, model reloads — with watchlist and remedy-evaluate
// calls, and after every pass compares the HTTP answer (items, order,
// fleet_size, score bits, remediation decisions) with a from-scratch
// ScoreUnits → Score → Rank over the same store. A ten-line model of the
// stamps predicts how many drives each pass re-scores and how many it
// answers from the column, which pins the two counters exactly.
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
	checkCounters := func(what string, hits0, scored0, hits, scored uint64) {
		t.Helper()
		if got := srv.memoHits.Value() - hits0; got != hits {
			t.Fatalf("%s: %d memo hits, want %d", what, got, hits)
		}
		if got := srv.scoredDrives.Value() - scored0; got != scored {
			t.Fatalf("%s: %d drives scored, want %d", what, got, scored)
		}
	}

	for i := 0; i < 20; i++ {
		accept(drives[rng.IntN(len(drives))])
	}
	loaded := 0 // index into models of the bytes being served
	for step := 0; step < steps; step++ {
		what := fmt.Sprintf("step %d", step)
		switch op := rng.IntN(100); {
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
			if rng.IntN(2) == 0 && len(lastDay) > 0 {
				days := make([]int32, 0, len(lastDay))
				for _, d := range lastDay {
					days = append(days, d)
				}
				sort.Slice(days, func(a, b int) bool { return days[a] < days[b] })
				since = days[len(days)/2]
			}
			threshold := []float64{0, 0.05, 0.5, 0.9}[rng.IntN(4)]
			k := []int{0, 1, 5, 50, 1000}[rng.IntN(5)]
			want, wantFleet := fromScratch(srv.store, pred, since, threshold, k)
			hits0, scored0 := srv.memoHits.Value(), srv.scoredDrives.Value()
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
			checkCounters(what, hits0, scored0, hits, scored)
		default: // remediation tick
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
			hits0, scored0 := srv.memoHits.Value(), srv.scoredDrives.Value()
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
			checkCounters(what, hits0, scored0, hits, scored)
		}
	}
	if srv.memoHits.Value() == 0 || srv.scoredDrives.Value() == 0 {
		t.Fatalf("the run never exercised both paths: %d hits, %d scored", srv.memoHits.Value(), srv.scoredDrives.Value())
	}
}
