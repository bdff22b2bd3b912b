package serve

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ssdfail/internal/dataset"
	"ssdfail/internal/ml/forest"
	"ssdfail/internal/model"
	"ssdfail/internal/rng"
	"ssdfail/internal/trace"
)

func TestRegistryLoadAndVersioning(t *testing.T) {
	r := NewRegistry(fixModelPath, nil)
	if _, _, ok := r.Current(); ok {
		t.Fatal("model present before Load")
	}
	info, err := r.Load()
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 {
		t.Fatalf("startup version = %d, want 1", info.Version)
	}
	if info.ModelName != "Random Forest" || info.Lookahead != fixLookahead {
		t.Fatalf("unexpected info %+v", info)
	}
	if info.SHA256 == "" || info.SizeBytes == 0 {
		t.Fatalf("missing provenance in %+v", info)
	}
	pred, _, ok := r.Current()
	if !ok || pred == nil {
		t.Fatal("no model after Load")
	}
	info2, err := r.Load()
	if err != nil {
		t.Fatal(err)
	}
	if info2.Version != 2 {
		t.Fatalf("reload version = %d, want 2", info2.Version)
	}
}

func TestRegistryFailedLoadKeepsOldModel(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.bin")
	valid, err := os.ReadFile(fixModelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(path, nil)
	if _, err := r.Load(); err != nil {
		t.Fatal(err)
	}
	pred1, info1, _ := r.Current()

	if err := os.WriteFile(path, []byte("corrupt garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Load(); err == nil {
		t.Fatal("corrupt model accepted")
	}
	pred2, info2, ok := r.Current()
	if !ok || pred2 != pred1 || info2.Version != info1.Version {
		t.Fatal("failed load disturbed the serving model")
	}

	// Trailing garbage after a valid payload must also be rejected.
	if err := os.WriteFile(path, append(append([]byte(nil), valid...), 0xff), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Load(); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// TestHotSwapNeverMixesModelsInABatch hammers concurrent hot reloads
// against in-flight batch scoring and asserts the core swap invariant at
// per-unit granularity (via the scorer's observe hook): every unit of a
// batch is scored by the exact predictor grabbed from the registry when
// the batch began — a reload landing mid-batch must never leak its new
// model into units already in flight. It also checks that the
// (predictor, version) pairing is never torn: one version, one pointer.
// Every third reload is fed corrupt model bytes: the failed load must
// neither bump the version nor disturb the serving predictor, while
// batches keep scoring through it. Run under -race this doubles as a
// data-race probe on the whole registry/scorer path.
func TestHotSwapNeverMixesModelsInABatch(t *testing.T) {
	// A private copy of the fixture model, so failing loads can corrupt
	// the file without affecting other tests.
	path := filepath.Join(t.TempDir(), "model.bin")
	valid, err := os.ReadFile(fixModelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(path, nil)
	if _, err := reg.Load(); err != nil {
		t.Fatal(err)
	}

	// A small but real scoring workload from the fixture fleet.
	var units []ScoreUnit
	for i := range fixFleet.Drives {
		d := &fixFleet.Drives[i]
		n := len(d.Days)
		if n == 0 {
			continue
		}
		u := ScoreUnit{ID: d.ID, Model: d.Model, Last: d.Days[n-1]}
		if n > 1 {
			u.Prev = d.Days[n-2]
			u.HasPrev = true
		}
		units = append(units, u)
		if len(units) == 64 {
			break
		}
	}
	if len(units) < 16 {
		t.Fatalf("fixture yielded only %d scoreable units", len(units))
	}

	// Version→predictor pairing, observed from all goroutines.
	var pairs sync.Map // version int -> *model.Predictor
	checkPair := func(version int, pred *model.Predictor) {
		if prior, loaded := pairs.LoadOrStore(version, pred); loaded && prior.(*model.Predictor) != pred {
			t.Errorf("version %d paired with two predictor pointers", version)
		}
	}

	const (
		scorers = 4
		batches = 40
		reloads = 100
	)
	var mixed atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Reloader: swap the model as fast as it will go, interleaving
	// deliberately failing loads (corrupt bytes) between the good ones.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < reloads; i++ {
			if i%3 == 2 {
				if err := os.WriteFile(path, []byte("torn model bytes"), 0o644); err != nil {
					t.Error(err)
					return
				}
				prevPred, prevInfo, ok := reg.Current()
				if !ok {
					t.Error("registry empty before failing load")
					return
				}
				if _, err := reg.Load(); err == nil {
					t.Errorf("reload %d: corrupt bytes loaded", i)
					return
				}
				curPred, curInfo, ok := reg.Current()
				if !ok || curPred != prevPred || curInfo.Version != prevInfo.Version {
					t.Errorf("reload %d: failed load disturbed the serving model", i)
					return
				}
				if err := os.WriteFile(path, valid, 0o644); err != nil {
					t.Error(err)
					return
				}
				continue
			}
			info, err := reg.Load()
			if err != nil {
				t.Errorf("reload %d: %v", i, err)
				return
			}
			pred, info2, ok := reg.Current()
			if ok && info2.Version == info.Version {
				checkPair(info2.Version, pred)
			}
		}
	}()

	for g := 0; g < scorers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := NewScorer(4)
			lastVersion := 0
			for b := 0; b < batches; b++ {
				pred, info, ok := reg.Current()
				if !ok {
					t.Error("registry empty mid-run")
					return
				}
				if info.Version < lastVersion {
					t.Errorf("version went backwards: %d after %d", info.Version, lastVersion)
				}
				lastVersion = info.Version
				checkPair(info.Version, pred)
				// The batch must be scored by pred and nothing else, no
				// matter how many reloads land while it runs.
				sc.observe = func(p *model.Predictor, unit int) {
					if p != pred {
						mixed.Add(1)
					}
				}
				out := sc.Score(pred, units)
				if len(out) != len(units) {
					t.Errorf("batch returned %d of %d units", len(out), len(units))
				}
				select {
				case <-stop:
					// Keep scoring while reloads are in flight; once the
					// reloader is done a couple more batches suffice.
					if b > batches/2 {
						return
					}
				default:
				}
			}
		}()
	}
	wg.Wait()
	if n := mixed.Load(); n != 0 {
		t.Fatalf("%d units scored by a different model than their batch grabbed", n)
	}
}

func TestRegistryRejectsWidthMismatch(t *testing.T) {
	// A forest trained at width 3 (not the serving pipeline's feature
	// width) would panic when scoring standard rows; the registry must
	// refuse it at load time.
	narrow := &dataset.Matrix{Width: 3}
	rng := rng.New(1)
	for i := 0; i < 100; i++ {
		label := int8(i % 2)
		for f := 0; f < 3; f++ {
			narrow.X = append(narrow.X, rng.NormFloat64()+float64(label)*3)
		}
		narrow.Y = append(narrow.Y, label)
		narrow.DriveIdx = append(narrow.DriveIdx, int32(i))
		narrow.Day = append(narrow.Day, int32(i))
		narrow.Age = append(narrow.Age, int32(i))
	}
	f := forest.New(forest.Config{Trees: 3, MaxDepth: 4, MinLeaf: 2, Seed: 1})
	if err := f.Fit(narrow); err != nil {
		t.Fatal(err)
	}
	payload, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var file []byte
	file = append(file, "SSDP"...)
	file = binary.LittleEndian.AppendUint32(file, 1) // lookahead
	file = binary.LittleEndian.AppendUint32(file, uint32(len(payload)))
	file = append(file, payload...)
	path := filepath.Join(t.TempDir(), "narrow.bin")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = NewRegistry(path, nil).Load()
	if err == nil || !strings.Contains(err.Error(), "feature width") {
		t.Fatalf("width mismatch not rejected: %v", err)
	}
}

// TestHotSwapSweepNeverEmitsAnotherVersionsScore carries the no-mixed-
// batch guarantee over to the score column. Two sweepers share one store
// while a third goroutine ingests new reports and a fourth hot-swaps
// between two different forests, so at any moment the column may hold
// stamps of several versions and two passes may hold different models.
// Every score a pass emits must be the bits its own model produces for
// that drive's report — never a memo left by another version — and the
// Scorer.observe hook must see only the pass's own predictor. Run with
// -race -count=10.
func TestHotSwapSweepNeverEmitsAnotherVersionsScore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.bin")
	files := fixtureModelFiles(t)
	preds := [2]*model.Predictor{loadPredictor(t, fixModelPath), loadPredictor(t, fixAltModelPath)}
	if err := os.WriteFile(path, files[0], 0o644); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(path, nil)
	if _, err := reg.Load(); err != nil {
		t.Fatal(err)
	}
	// The reloader below alternates the two files and every load
	// succeeds, so version v serves files[(v-1)%2].

	// What each model scores for every report the ingester will feed:
	// the first report of a drive has no predecessor, later ones do.
	const window = 8
	type reportKey struct {
		id  uint32
		day int32
	}
	want := map[reportKey][2]uint64{}
	var drives []*trace.Drive
	differ := 0
	for di := range fixFleet.Drives {
		d := &fixFleet.Drives[di]
		if len(d.Days) < window {
			continue
		}
		drives = append(drives, d)
		first := len(d.Days) - window
		for j := first; j < len(d.Days); j++ {
			var prev *trace.DayRecord
			if j > first {
				prev = &d.Days[j-1]
			}
			w := [2]uint64{
				math.Float64bits(preds[0].ScoreRecord(&d.Days[j], prev)),
				math.Float64bits(preds[1].ScoreRecord(&d.Days[j], prev)),
			}
			if w[0] != w[1] {
				differ++
			}
			want[reportKey{d.ID, d.Days[j].Day}] = w
		}
	}
	if differ < len(want)/4 {
		t.Fatalf("the two fixture models agree on all but %d of %d reports; the test could not tell them apart", differ, len(want))
	}

	store := NewStore(8, 0)
	feed := func(offset int) {
		for _, d := range drives {
			if err := store.Upsert(d.ID, d.Model, d.Days[len(d.Days)-window+offset]); err != nil {
				t.Error(err)
				return
			}
		}
	}
	feed(0)

	var wg sync.WaitGroup
	var feeding atomic.Int32 // goroutines still changing the store or the model
	feeding.Store(2)
	wg.Add(2)
	go func() { // ingest
		defer wg.Done()
		defer feeding.Add(-1)
		for offset := 1; offset < window; offset++ {
			feed(offset)
		}
	}()
	go func() { // hot swaps in the middle of it
		defer wg.Done()
		defer feeding.Add(-1)
		for i := 1; i <= 12; i++ {
			if err := os.WriteFile(path, files[i%2], 0o644); err != nil {
				t.Error(err)
				return
			}
			if _, err := reg.Load(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var mixed, foreign, unknown, passes atomic.Int64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := NewScorer(2)
			for quiet := 0; quiet < 2; {
				if feeding.Load() == 0 {
					quiet++ // a couple of passes over the settled store too
				}
				pred, info, _ := reg.Current()
				sc.observe = func(p *model.Predictor, unit int) {
					if p != pred {
						mixed.Add(1)
					}
				}
				own := (info.Version - 1) % 2
				sc.Sweep(store, pred, info.Version, 0, math.Inf(-1), func(s Scored) {
					w, ok := want[reportKey{s.ID, s.Day}]
					switch {
					case !ok:
						unknown.Add(1)
					case math.Float64bits(s.Score) != w[own]:
						foreign.Add(1)
					}
				})
				passes.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := mixed.Load(); n != 0 {
		t.Errorf("%d units re-scored by a different model than their pass grabbed", n)
	}
	if n := unknown.Load(); n != 0 {
		t.Errorf("%d emitted entries name a report that was never ingested", n)
	}
	if n := foreign.Load(); n != 0 {
		t.Errorf("%d of the scores emitted over %d passes are not the bits the pass's own model version produces", n, passes.Load())
	}

	// Settled: one more pass per sweeper's last version may still be
	// cold, the one after it is answered from the column alone.
	pred, info, _ := reg.Current()
	sc := NewScorer(2)
	wantRanked, _ := fromScratch(store, pred, 0, 0, 0)
	got, _ := sweepRanked(sc, store, pred, info.Version, 0, 0, 0)
	requireSameRanking(t, "settled pass", got, wantRanked)
	got, stats := sweepRanked(sc, store, pred, info.Version, 0, 0, 0)
	requireSameRanking(t, "settled warm pass", got, wantRanked)
	if stats.Scored != 0 || stats.Hits != len(drives) {
		t.Fatalf("settled warm pass: %+v, want %d hits", stats, len(drives))
	}
}
