package expgrid

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"ssdfail/internal/dataset"
	"ssdfail/internal/eval"
	"ssdfail/internal/failure"
	"ssdfail/internal/fleetsim"
	"ssdfail/internal/ml"
	"ssdfail/internal/ml/forest"
	"ssdfail/internal/ml/logreg"
	"ssdfail/internal/ml/tree"
	"ssdfail/internal/trace"
)

var (
	fixOnce  sync.Once
	fixFleet *trace.Fleet
	fixAn    *failure.Analysis
	fixErr   error
)

// fixture builds one small shared fleet for all engine tests.
func fixture(t *testing.T) (*trace.Fleet, *failure.Analysis) {
	t.Helper()
	fixOnce.Do(func() {
		fc := fleetsim.DefaultConfig(11, 90)
		fc.HorizonDays = 1095
		if fc.EarlyWindow >= fc.HorizonDays-60 {
			fc.EarlyWindow = (fc.HorizonDays - 60) / 3
		}
		fixFleet, _, fixErr = fleetsim.Generate(fc)
		if fixErr == nil {
			fixAn = failure.Analyze(fixFleet)
		}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixFleet, fixAn
}

// testClassifiers returns two cheap deterministic classifiers.
func testClassifiers(trees int) []ClassifierSpec {
	return []ClassifierSpec{
		{Label: "Logistic Reg.", New: func(seed uint64) ml.Classifier {
			cfg := logreg.DefaultConfig()
			cfg.Seed = seed
			return logreg.New(cfg)
		}},
		{Label: "Random Forest", New: func(seed uint64) ml.Classifier {
			cfg := forest.DefaultConfig()
			cfg.Trees = trees
			cfg.Seed = seed
			cfg.Workers = 1
			return forest.New(cfg)
		}},
	}
}

func testSpec(t *testing.T) Spec {
	f, an := fixture(t)
	return Spec{
		Scopes:            []Scope{{Name: "all", Fleet: f, An: an}},
		Classifiers:       testClassifiers(10),
		Lookaheads:        []int{1, 2},
		Folds:             3,
		Seed:              42,
		TestNegSampleProb: 0.2,
	}
}

// TestEngineDeterminismAcrossWorkers is the tentpole guarantee: the AUC
// table must be byte-identical at one worker and at high concurrency,
// run after run.
func TestEngineDeterminismAcrossWorkers(t *testing.T) {
	var tables [][]byte
	for _, workers := range []int{1, 2, 4, 4} {
		spec := testSpec(t)
		spec.Workers = workers
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := res.Err(); err != nil {
			t.Fatalf("workers=%d: task error: %v", workers, err)
		}
		tables = append(tables, res.AUCTable())
	}
	for i := 1; i < len(tables); i++ {
		if !bytes.Equal(tables[0], tables[i]) {
			t.Fatalf("AUC table differs between run 0 (workers=1) and run %d:\n%s\nvs\n%s",
				i, tables[0], tables[i])
		}
	}
}

// TestEngineResultShape checks canonical ordering, cell retrieval, and
// that AUCs look like discriminative classifier output on this fleet.
func TestEngineResultShape(t *testing.T) {
	spec := testSpec(t)
	spec.Workers = 2
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	wantTasks := 1 * len(spec.Classifiers) * len(spec.Lookaheads) * spec.Folds
	if len(res.Tasks) != wantTasks {
		t.Fatalf("got %d tasks, want %d", len(res.Tasks), wantTasks)
	}
	// Canonical order: lookahead-major over classifiers over folds.
	i := 0
	for _, n := range spec.Lookaheads {
		for _, cs := range spec.Classifiers {
			for k := 0; k < spec.Folds; k++ {
				got := res.Tasks[i].Key
				want := TaskKey{Scope: "all", Classifier: cs.Label, Lookahead: n, Fold: k}
				if got != want {
					t.Fatalf("task %d key = %v, want %v", i, got, want)
				}
				i++
			}
		}
	}
	for _, cs := range spec.Classifiers {
		aucs, ok := res.Cell("all", cs.Label, 1)
		if !ok || len(aucs) != spec.Folds {
			t.Fatalf("cell (all, %s, 1): ok=%v n=%d", cs.Label, ok, len(aucs))
		}
		for _, a := range aucs {
			if a < 0.55 || a > 1 {
				t.Errorf("%s fold AUC %.3f outside sane range", cs.Label, a)
			}
		}
	}
	if res.Stats.Tasks != wantTasks || res.Stats.WallSeconds <= 0 || res.Stats.TasksPerSec <= 0 {
		t.Errorf("stats incomplete: %+v", res.Stats)
	}
}

// TestEngineCacheReuse pins the cache contract: one miss per
// (scope, lookahead) cell, everything else hits.
func TestEngineCacheReuse(t *testing.T) {
	spec := testSpec(t)
	spec.Workers = 2
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	cells := int64(len(spec.Lookaheads)) // one scope
	tasks := int64(len(res.Tasks))
	if res.Stats.CacheMisses != cells {
		t.Errorf("cache misses = %d, want %d (one per cell)", res.Stats.CacheMisses, cells)
	}
	if res.Stats.CacheHits != tasks-cells {
		t.Errorf("cache hits = %d, want %d", res.Stats.CacheHits, tasks-cells)
	}
	if res.Stats.PeakMatrixBytes <= 0 {
		t.Error("peak matrix bytes not tracked")
	}
	if res.Stats.CacheHitRate <= 0 || res.Stats.CacheHitRate >= 1 {
		t.Errorf("cache hit rate = %v, want in (0,1)", res.Stats.CacheHitRate)
	}
}

// TestEngineTinyCacheStillDeterministic forces evictions and rebuilds
// mid-run and requires results identical to an unbounded-cache run —
// the rebuild-determinism contract of MatrixCache.
func TestEngineTinyCacheStillDeterministic(t *testing.T) {
	unbounded := testSpec(t)
	unbounded.Workers = 2
	unbounded.CacheBytes = -1
	want, err := Run(unbounded)
	if err != nil {
		t.Fatal(err)
	}
	tiny := testSpec(t)
	tiny.Workers = 2
	tiny.CacheBytes = 1 // evict after every insert
	got, err := Run(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.CacheEvictions == 0 {
		t.Error("tiny cache recorded no evictions")
	}
	if !bytes.Equal(want.AUCTable(), got.AUCTable()) {
		t.Fatal("AUC table changed under cache eviction pressure")
	}
}

// multiCellSpec is a four-cell grid: two scopes over the fixture fleet
// times two lookaheads, one cheap classifier.
func multiCellSpec(t *testing.T) Spec {
	spec := testSpec(t)
	f, an := fixture(t)
	spec.Scopes = []Scope{{Name: "a", Fleet: f, An: an}, {Name: "b", Fleet: f, An: an}}
	spec.Classifiers = spec.Classifiers[:1]
	return spec
}

// TestScheduleOneCellAhead pins the submission order: a permutation of
// the canonical tasks in which each cell's first task is submitted
// before the second task of the cell ahead of it, so the next matrix
// builds while the current one is in use.
func TestScheduleOneCellAhead(t *testing.T) {
	spec := multiCellSpec(t).normalized()
	tasks := enumerate(&spec)
	order := schedule(tasks)
	pos := make([]int, len(tasks)) // submission position of each task
	seen := make([]bool, len(tasks))
	if len(order) != len(tasks) {
		t.Fatalf("schedule has %d entries for %d tasks", len(order), len(tasks))
	}
	for p, i := range order {
		if i < 0 || i >= len(tasks) || seen[i] {
			t.Fatalf("schedule %v is not a permutation of %d tasks", order, len(tasks))
		}
		seen[i] = true
		pos[i] = p
	}
	perCell := len(spec.Classifiers) * spec.Folds
	cells := len(tasks) / perCell
	if cells != 4 {
		t.Fatalf("fixture has %d cells, want 4", cells)
	}
	for c := 0; c+1 < cells; c++ {
		first, second, nextFirst := c*perCell, c*perCell+1, (c+1)*perCell
		if pos[nextFirst] > pos[second] {
			t.Errorf("cell %d's first task is submitted at %d, after cell %d's second at %d",
				c+1, pos[nextFirst], c, pos[second])
		}
		if pos[first] > pos[nextFirst] {
			t.Errorf("cell %d starts after cell %d", c, c+1)
		}
	}
	// Within a cell the tasks keep their canonical order.
	for i := 1; i < len(tasks); i++ {
		if i%perCell != 0 && pos[i] < pos[i-1] {
			t.Errorf("task %d submitted before task %d of the same cell", i, i-1)
		}
	}
}

// TestScheduleBuildsEachCellOnce: with the default cache budget the
// overlapped builds still extract every cell's matrix exactly once, at
// any worker count, and the table matches across worker counts.
func TestScheduleBuildsEachCellOnce(t *testing.T) {
	var ref []byte
	for _, workers := range []int{1, 2, 4} {
		spec := multiCellSpec(t)
		spec.Workers = workers
		res, err := Run(spec)
		if err == nil {
			err = res.Err()
		}
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		cells := int64(len(spec.Scopes) * len(spec.Lookaheads))
		if res.Stats.CacheMisses != cells || res.Stats.CacheEvictions != 0 {
			t.Errorf("workers=%d: %d cache misses and %d evictions, want %d and 0",
				workers, res.Stats.CacheMisses, res.Stats.CacheEvictions, cells)
		}
		if table := res.AUCTable(); ref == nil {
			ref = table
		} else if !bytes.Equal(ref, table) {
			t.Fatalf("workers=%d: AUC table differs from workers=1", workers)
		}
	}
}

// TestSplitRowsFoldHygiene checks the §5 methodology invariants on the
// engine's row splitter: train and test never share a drive, test holds
// exactly the fold's rows, and downsampling keeps every positive.
func TestSplitRowsFoldHygiene(t *testing.T) {
	f, an := fixture(t)
	base := dataset.Extract(f, an, dataset.Options{
		Lookahead: 1, NegativeSampleProb: 0.2, Seed: 9, AgeMax: -1,
	})
	folds := dataset.Folds(len(f.Drives), 3, 42)
	for k := 0; k < 3; k++ {
		train, test := splitRows(base, folds, k, 1234, 1)
		seen := make(map[int32]string)
		for _, i := range train {
			seen[base.DriveIdx[i]] = "train"
			if folds[base.DriveIdx[i]] == k {
				t.Fatalf("fold %d: train row %d belongs to test fold", k, i)
			}
		}
		for _, i := range test {
			if folds[base.DriveIdx[i]] != k {
				t.Fatalf("fold %d: test row %d belongs to fold %d", k, i, folds[base.DriveIdx[i]])
			}
			if seen[base.DriveIdx[i]] == "train" {
				t.Fatalf("fold %d: drive %d appears in both train and test", k, base.DriveIdx[i])
			}
		}
		// Every positive outside the fold must survive downsampling, and
		// every fold row must be in test.
		wantTest := 0
		wantPos := 0
		for i := 0; i < base.Len(); i++ {
			if folds[base.DriveIdx[i]] == k {
				wantTest++
			} else if base.Y[i] == 1 {
				wantPos++
			}
		}
		if len(test) != wantTest {
			t.Fatalf("fold %d: test has %d rows, want %d", k, len(test), wantTest)
		}
		if cap(train) != len(train) || cap(test) != len(test) {
			t.Errorf("fold %d: row lists not allocated at their final size: train %d/%d test %d/%d",
				k, len(train), cap(train), len(test), cap(test))
		}
		gotPos := 0
		for _, i := range train {
			if base.Y[i] == 1 {
				gotPos++
			}
		}
		if gotPos != wantPos {
			t.Fatalf("fold %d: train kept %d positives, want all %d", k, gotPos, wantPos)
		}
		// 1:1 downsampling: negatives within 3x of positives (hash
		// sampling is approximate on small counts).
		gotNeg := len(train) - gotPos
		if wantPos > 20 && (gotNeg < wantPos/3 || gotNeg > wantPos*3) {
			t.Errorf("fold %d: train negatives %d far from 1:1 against %d positives", k, gotNeg, wantPos)
		}
	}
}

// TestEngineKeepScores checks pooled-score provenance: per-task scores
// align with labels and ages, and cover only the task's test fold.
func TestEngineKeepScores(t *testing.T) {
	spec := testSpec(t)
	spec.Classifiers = []ClassifierSpec{{Label: "Decision Tree", New: func(seed uint64) ml.Classifier {
		cfg := tree.DefaultConfig()
		cfg.Seed = seed
		return tree.New(cfg)
	}}}
	spec.Lookaheads = []int{1}
	spec.Workers = 2
	spec.KeepScores = true
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	f, _ := fixture(t)
	folds := dataset.Folds(len(f.Drives), spec.Folds, spec.Seed)
	total := 0
	for i := range res.Tasks {
		tr := &res.Tasks[i]
		if len(tr.Scores) != tr.TestRows || len(tr.Y) != tr.TestRows ||
			len(tr.Ages) != tr.TestRows || len(tr.DriveIdx) != tr.TestRows {
			t.Fatalf("task %v: provenance slices disagree with TestRows=%d", tr.Key, tr.TestRows)
		}
		for _, di := range tr.DriveIdx {
			if folds[di] != tr.Key.Fold {
				t.Fatalf("task %v: pooled row from drive %d of fold %d", tr.Key, di, folds[di])
			}
		}
		total += tr.TestRows
	}
	if total == 0 {
		t.Fatal("no pooled scores")
	}
}

// TestEngineScoresFoldInPlace holds the in-place scoring of the test fold
// to the copying path it replaced: subsetting the fold out of the base
// matrix and scoring the copy must give the same scores, labels, ages,
// drive indices and AUC, bit for bit.
func TestEngineScoresFoldInPlace(t *testing.T) {
	spec := testSpec(t)
	spec.Lookaheads = []int{1}
	spec.KeepScores = true
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	spec = spec.normalized()
	base, err := buildBase(&spec, &spec.Scopes[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	folds := dataset.Folds(len(spec.Scopes[0].Fleet.Drives), spec.Folds, spec.Seed)
	for ti, tk := range enumerate(&spec) {
		got := &res.Tasks[ti]
		trainRows, testRows := splitRows(base, folds, tk.key.Fold, tk.key.SampleSeed(spec.Seed), spec.DownsampleRatio)
		test := base.Subset(testRows)
		clf := spec.Classifiers[tk.clfIdx].New(tk.key.Seed(spec.Seed))
		if err := clf.Fit(base.Subset(trainRows)); err != nil {
			t.Fatal(err)
		}
		want := ml.ScoreBatch(clf, test)
		if !slices.Equal(got.Scores, want) || !slices.Equal(got.Y, test.Y) ||
			!slices.Equal(got.Ages, test.Age) || !slices.Equal(got.DriveIdx, test.DriveIdx) {
			t.Fatalf("task %v: in-place scores or provenance differ from the subset path", got.Key)
		}
		if got.TestRows != test.Len() || got.TestPos != test.Positives() {
			t.Fatalf("task %v: test fold %d rows / %d positives, subset path %d / %d",
				got.Key, got.TestRows, got.TestPos, test.Len(), test.Positives())
		}
		if auc := eval.AUC(want, test.Y); got.AUC != auc {
			t.Fatalf("task %v: AUC %v, subset path %v", got.Key, got.AUC, auc)
		}
	}
}

// rowID identifies a pooled test row within a scope.
type rowID struct{ drive, age int32 }

// pooledRows runs spec with KeepScores and returns every test row's
// identity; each row lands in exactly one fold's test set.
func pooledRows(t *testing.T, spec Spec) map[rowID]bool {
	t.Helper()
	spec.KeepScores = true
	res, err := Run(spec)
	if err == nil {
		err = res.Err()
	}
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[rowID]bool)
	for i := range res.Tasks {
		tr := &res.Tasks[i]
		for j, di := range tr.DriveIdx {
			id := rowID{di, tr.Ages[j]}
			if rows[id] {
				t.Fatalf("task %v: row %v pooled twice", tr.Key, id)
			}
			rows[id] = true
		}
	}
	return rows
}

// TestCellKeyPinsExtractionSeed pins the cache key that buildBase hashes
// into every cell's extraction seed. The Table 6 cells (experiments'
// default config: the "all" scope, no age band, negatives thinned to
// 0.25, seed 42) must keep their exact strings, "w=0" included, or every
// cell re-seeds and table6_golden.json moves. Each extraction field must
// still reach the key, so two different extractions never share a cell.
func TestCellKeyPinsExtractionSeed(t *testing.T) {
	table6 := Spec{Seed: 42, TestNegSampleProb: 0.25}.normalized()
	for _, n := range []int{1, 2, 3, 7} {
		want := fmt.Sprintf("all|N=%d|w=0|age=0..-1|q=0.25|seed=42", n)
		if got := cellKey(&table6, "all", n); got != want {
			t.Errorf("Table 6 N=%d cell key %q, want %q", n, got, want)
		}
	}
	ref := cellKey(&table6, "all", 7)
	for name, mod := range map[string]func(*Spec){
		"AgeMin":            func(s *Spec) { s.AgeMin = 91 },
		"AgeMax":            func(s *Spec) { s.AgeMax = 90 },
		"TestNegSampleProb": func(s *Spec) { s.TestNegSampleProb = 0.5 },
		"Seed":              func(s *Spec) { s.Seed = 43 },
	} {
		s := table6
		mod(&s)
		if cellKey(&s, "all", 7) == ref {
			t.Errorf("changing %s leaves the cell key at %q", name, ref)
		}
	}
}

// TestSpecRowOptions covers the Spec options that decide which rows a
// task sees: the age band and the training downsampling ratio.
func TestSpecRowOptions(t *testing.T) {
	f, an := fixture(t)
	// One cheap classifier, a lookahead with several positive days per
	// failure, and no negative thinning: thinning is seeded per cache
	// cell, so only unthinned runs extract comparable row sets.
	base := Spec{
		Scopes: []Scope{{Name: "all", Fleet: f, An: an}},
		Classifiers: []ClassifierSpec{{Label: "Decision Tree", New: func(seed uint64) ml.Classifier {
			return tree.New(tree.Config{MaxDepth: 4, MinLeaf: 2, MinSplit: 4, Seed: seed})
		}}},
		Lookaheads: []int{7},
		Folds:      2,
		Seed:       42,
		Workers:    1,
	}
	const youngMax = 90
	type optionCase struct {
		name  string
		set   func(*Spec)
		check func(t *testing.T, spec Spec)
	}
	cases := []optionCase{
		{"age band", func(s *Spec) { s.AgeMin, s.AgeMax = 0, youngMax }, func(t *testing.T, young Spec) {
			old := base
			old.AgeMin, old.AgeMax = youngMax+1, -1
			youngRows, oldRows, all := pooledRows(t, young), pooledRows(t, old), pooledRows(t, base)
			for id := range youngRows {
				if id.age > youngMax || !all[id] {
					t.Fatalf("young band pooled row %v", id)
				}
			}
			for id := range oldRows {
				if id.age <= youngMax || !all[id] {
					t.Fatalf("old band pooled row %v", id)
				}
			}
			if len(youngRows) == 0 || len(oldRows) == 0 || len(youngRows)+len(oldRows) != len(all) {
				t.Errorf("young %d + old %d rows do not cover the unbanded %d", len(youngRows), len(oldRows), len(all))
			}
		}},
	}
	for _, r := range []float64{0.5, 2, 5} {
		cases = append(cases, optionCase{fmt.Sprintf("downsample %g:1", r), func(s *Spec) { s.DownsampleRatio = r }, func(t *testing.T, spec Spec) {
			res, err := Run(spec)
			if err == nil {
				err = res.Err()
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := range res.Tasks {
				tr := &res.Tasks[i]
				neg, want := float64(tr.TrainRows-tr.TrainPos), r*float64(tr.TrainPos)
				// Negatives are kept by independent per-row draws: allow
				// four binomial standard deviations.
				if math.Abs(neg-want) > 4*math.Sqrt(want) {
					t.Errorf("%v: %v train negatives for %d positives, want about %v", tr.Key, neg, tr.TrainPos, want)
				}
			}
		}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := base
			c.set(&spec)
			c.check(t, spec)
		})
	}
}

// TestSpecValidation rejects malformed grids.
func TestSpecValidation(t *testing.T) {
	f, an := fixture(t)
	cases := []Spec{
		{},
		{Scopes: []Scope{{Name: "all", Fleet: f, An: an}}},
		{Scopes: []Scope{{Name: "all"}}, Classifiers: testClassifiers(5)},
		{Scopes: []Scope{{Name: "a", Fleet: f, An: an}, {Name: "a", Fleet: f, An: an}},
			Classifiers: testClassifiers(5)},
		{Scopes: []Scope{{Name: "all", Fleet: f, An: an}},
			Classifiers: []ClassifierSpec{{Label: "x", New: nil}}},
		{Scopes: []Scope{{Name: "all", Fleet: f, An: an}},
			Classifiers: testClassifiers(5), Lookaheads: []int{0}},
	}
	for i, spec := range cases {
		if _, err := Run(spec); err == nil {
			t.Errorf("case %d: Run accepted invalid spec", i)
		}
	}
}

// TestEngineTaskSecondsRecorded pins the per-task wall time: runTask
// stamps it in a deferred function, which only reaches the caller
// through a named result (it used to be lost, and every task read 0).
// Timing is diagnostic, so it must not leak into the AUC table: two runs
// with different per-task times still render byte-identical tables.
func TestEngineTaskSecondsRecorded(t *testing.T) {
	var tables [][]byte
	for _, workers := range []int{1, 2} {
		spec := testSpec(t)
		spec.Workers = workers
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		var wait, fit, score, evalS float64
		for i := range res.Tasks {
			task := &res.Tasks[i]
			if task.Seconds <= 0 || task.Seconds > res.Stats.WallSeconds {
				t.Errorf("workers=%d: task %s reports %v s of a %v s grid", workers, task.Key, task.Seconds, res.Stats.WallSeconds)
			}
			// The stages are consecutive laps inside the task's wall time.
			stages := task.WaitSeconds + task.FitSeconds + task.ScoreSeconds + task.EvalSeconds
			if task.WaitSeconds <= 0 || task.FitSeconds <= 0 || task.ScoreSeconds <= 0 || task.EvalSeconds <= 0 ||
				stages > task.Seconds {
				t.Errorf("workers=%d: task %s stages wait %v + fit %v + score %v + eval %v against %v s",
					workers, task.Key, task.WaitSeconds, task.FitSeconds, task.ScoreSeconds, task.EvalSeconds, task.Seconds)
			}
			wait += task.WaitSeconds
			fit += task.FitSeconds
			score += task.ScoreSeconds
			evalS += task.EvalSeconds
		}
		if st := res.Stats; st.WaitSeconds != wait || st.FitSeconds != fit || st.ScoreSeconds != score || st.EvalSeconds != evalS {
			t.Errorf("workers=%d: Stats stage sums %+v are not the tasks' sums", workers, st)
		}
		tables = append(tables, res.AUCTable())
	}
	if !bytes.Equal(tables[0], tables[1]) {
		t.Fatalf("AUC table moved with task timing:\n%s\nvs\n%s", tables[0], tables[1])
	}
}
