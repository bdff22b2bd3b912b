// Package expgrid is a parallel, deterministic experiment engine for the
// paper's §5 prediction grid. It decomposes the grid — fleet scopes ×
// classifiers × lookahead windows × drive-partitioned CV folds — into
// independent tasks, schedules them dynamically over the shared
// internal/parallel worker pool, and guarantees bit-identical results at
// any worker count: every random choice is keyed by the task's stable
// TaskKey, never by execution order.
//
// The dominant cost of the grid is windowed feature extraction, which is
// identical for every classifier and fold of a (scope, lookahead) cell.
// The engine extracts each cell's base matrix once, caches it in a
// byte-bounded LRU (MatrixCache), and derives per-task train/test sets
// by slicing rows with stateless per-row hashes — so a 6-classifier ×
// 5-fold cell pays for one extraction instead of sixty.
//
// See DESIGN.md §11 for the task decomposition, the seed-derivation
// contract, and the cache-bound policy.
package expgrid

import (
	"errors"
	"fmt"
	"time"

	"ssdfail/internal/dataset"
	"ssdfail/internal/eval"
	"ssdfail/internal/failure"
	"ssdfail/internal/ml"
	"ssdfail/internal/parallel"
	"ssdfail/internal/trace"
)

// DefaultCacheBytes bounds the matrix cache when Spec.CacheBytes is 0:
// large enough to hold the working set of a paper-scale run at two
// concurrent lookaheads, small enough for CI runners.
const DefaultCacheBytes int64 = 1 << 31 // 2 GiB

// Scope is one fleet slice the grid evaluates on — the whole fleet
// ("all") for Table 6, or a single drive model's view for Table 7's
// diagonal.
type Scope struct {
	Name  string
	Fleet *trace.Fleet
	An    *failure.Analysis
}

// ClassifierSpec names a classifier and constructs fresh instances. New
// receives the task seed (derived from the TaskKey) and must return a
// classifier whose Fit is deterministic given that seed — including
// across the classifier's own internal worker count.
type ClassifierSpec struct {
	Label string
	New   func(seed uint64) ml.Classifier
}

// Spec describes a full experiment grid.
type Spec struct {
	Scopes      []Scope
	Classifiers []ClassifierSpec
	Lookaheads  []int
	Folds       int    // drive-partitioned CV folds (default 5)
	Seed        uint64 // base seed; all task seeds derive from it

	// DownsampleRatio is the training negatives-per-positive ratio
	// (default 1, the paper's 1:1).
	DownsampleRatio float64
	// TestNegSampleProb subsamples negatives uniformly in the cached
	// base matrix (<= 0 or >= 1 keeps all). Test folds use the base
	// matrix rows directly — AUC is a rank statistic, so uniform
	// negative subsampling is unbiased — and training downsampling
	// draws from the same thinned pool.
	TestNegSampleProb float64
	// AgeMin/AgeMax restrict rows to an age band (inclusive);
	// AgeMax < 0 means unbounded (0 is normalized to unbounded).
	AgeMin, AgeMax int32

	Workers    int   // concurrent tasks; <= 0 = all CPUs
	CacheBytes int64 // matrix cache budget; 0 = DefaultCacheBytes, < 0 = unbounded
	// KeepScores retains each task's test scores and row provenance in
	// its TaskResult (for pooled-score figures).
	KeepScores bool
}

// normalized returns a copy of s with defaults filled in.
func (s Spec) normalized() Spec {
	if s.Folds <= 0 {
		s.Folds = 5
	}
	if len(s.Lookaheads) == 0 {
		s.Lookaheads = []int{1}
	}
	if s.DownsampleRatio == 0 {
		s.DownsampleRatio = 1
	}
	if s.AgeMax == 0 {
		s.AgeMax = -1
	}
	if s.CacheBytes == 0 {
		s.CacheBytes = DefaultCacheBytes
	}
	return s
}

// validate rejects specs the engine cannot run deterministically.
func (s *Spec) validate() error {
	if len(s.Scopes) == 0 {
		return errors.New("expgrid: no scopes")
	}
	if len(s.Classifiers) == 0 {
		return errors.New("expgrid: no classifiers")
	}
	seen := make(map[string]bool)
	for _, sc := range s.Scopes {
		if sc.Fleet == nil || sc.An == nil {
			return fmt.Errorf("expgrid: scope %q missing fleet or analysis", sc.Name)
		}
		if seen[sc.Name] {
			return fmt.Errorf("expgrid: duplicate scope %q", sc.Name)
		}
		seen[sc.Name] = true
	}
	labels := make(map[string]bool)
	for _, cs := range s.Classifiers {
		if cs.New == nil {
			return fmt.Errorf("expgrid: classifier %q has no constructor", cs.Label)
		}
		if labels[cs.Label] {
			return fmt.Errorf("expgrid: duplicate classifier label %q", cs.Label)
		}
		labels[cs.Label] = true
	}
	for _, n := range s.Lookaheads {
		if n < 1 {
			return fmt.Errorf("expgrid: lookahead %d < 1", n)
		}
	}
	return nil
}

// task pairs a key with the indices needed to run it.
type task struct {
	key      TaskKey
	scopeIdx int
	clfIdx   int
}

// enumerate lists the grid's tasks in canonical order: scope-major, then
// lookahead, classifier, fold, so each (scope, lookahead) cell's tasks
// are contiguous. The order fixes result slots, never seeds (those come
// from the keys); Run submits the tasks in the order schedule gives.
func enumerate(s *Spec) []task {
	var out []task
	for si, sc := range s.Scopes {
		for _, n := range s.Lookaheads {
			for ci, cs := range s.Classifiers {
				for k := 0; k < s.Folds; k++ {
					out = append(out, task{
						key:      TaskKey{Scope: sc.Name, Classifier: cs.Label, Lookahead: n, Fold: k},
						scopeIdx: si,
						clfIdx:   ci,
					})
				}
			}
		}
	}
	return out
}

// schedule returns the submission order of the canonically ordered
// tasks, as indices into them: the first task of cell c+1 goes right
// after the first task of cell c, ahead of the rest of cell c. A free
// worker then builds the next cell's matrix while the others train on
// the current one, instead of queueing on the same single-flight build,
// and submission never runs more than one cell ahead.
func schedule(tasks []task) []int {
	var starts []int // index of each cell's first task
	for i := range tasks {
		if i == 0 || tasks[i].scopeIdx != tasks[i-1].scopeIdx || tasks[i].key.Lookahead != tasks[i-1].key.Lookahead {
			starts = append(starts, i)
		}
	}
	starts = append(starts, len(tasks))
	order := make([]int, 0, len(tasks))
	for c, first := range starts[:len(starts)-1] {
		if c == 0 {
			order = append(order, first)
		}
		next := starts[c+1]
		if next < len(tasks) {
			order = append(order, next)
		}
		for i := first + 1; i < next; i++ {
			order = append(order, i)
		}
	}
	return order
}

// cellKey is the matrix-cache key of a (scope, lookahead) cell under the
// spec's extraction options.
func cellKey(s *Spec, scope string, lookahead int) string {
	// "w=0" is the retired trailing-window width; buildBase hashes this
	// string into every cell's extraction seed, so it must stay.
	return fmt.Sprintf("%s|N=%d|w=0|age=%d..%d|q=%g|seed=%d",
		scope, lookahead, s.AgeMin, s.AgeMax, s.TestNegSampleProb, s.Seed)
}

// buildBase extracts the cell's base matrix: every drive of the scope,
// all positives, negatives uniformly thinned to TestNegSampleProb. The
// extraction seed depends only on (spec seed, scope, lookahead), so the
// matrix is identical no matter which task triggers the build.
func buildBase(s *Spec, sc *Scope, lookahead int) (*dataset.Matrix, error) {
	m := dataset.Extract(sc.Fleet, sc.An, dataset.Options{
		Lookahead:          lookahead,
		NegativeSampleProb: s.TestNegSampleProb,
		Seed:               mix64(s.Seed ^ fnv1a64(cellKey(s, sc.Name, lookahead))),
		AgeMin:             s.AgeMin,
		AgeMax:             s.AgeMax,
	})
	if m.Len() == 0 {
		return nil, fmt.Errorf("expgrid: scope %q N=%d extracts no rows", sc.Name, lookahead)
	}
	return m, nil
}

// splitRows partitions the base matrix's rows for fold k: test rows are
// the fold's drives (all of them — the base matrix already carries the
// test-time negative subsampling), train rows are the other drives with
// negatives downsampled to ratio negatives per positive by stateless
// per-row hashing. Row decisions depend only on (sampleSeed, row index),
// never on visit order.
func splitRows(m *dataset.Matrix, folds []int, k int, sampleSeed uint64, ratio float64) (train, test []int) {
	var pos, neg, nTest int
	for i := 0; i < m.Len(); i++ {
		switch {
		case folds[m.DriveIdx[i]] == k:
			nTest++
		case m.Y[i] == 1:
			pos++
		default:
			neg++
		}
	}
	p := 1.0
	if ratio > 0 && neg > 0 {
		p = float64(pos) * ratio / float64(neg)
	}
	keep := func(i int) bool { return m.Y[i] == 1 || p >= 1 || hash01(sampleSeed, i) < p }
	nTrain := 0
	for i := 0; i < m.Len(); i++ {
		if folds[m.DriveIdx[i]] != k && keep(i) {
			nTrain++
		}
	}
	train, test = make([]int, 0, nTrain), make([]int, 0, nTest)
	for i := 0; i < m.Len(); i++ {
		if folds[m.DriveIdx[i]] == k {
			test = append(test, i)
		} else if keep(i) {
			train = append(train, i)
		}
	}
	return train, test
}

// Run executes the grid and returns per-task results in canonical order
// plus run statistics. Tasks that fail record their error and do not
// abort the rest of the grid; Result.Err() surfaces the first failure.
func Run(spec Spec) (*Result, error) {
	spec = spec.normalized()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	tasks := enumerate(&spec)
	cache := NewMatrixCache(spec.CacheBytes)

	// Fold assignment per scope, shared by all of the scope's tasks.
	scopeFolds := make([][]int, len(spec.Scopes))
	for si, sc := range spec.Scopes {
		scopeFolds[si] = dataset.Folds(len(sc.Fleet.Drives), spec.Folds, spec.Seed)
	}

	results := make([]TaskResult, len(tasks))
	start := time.Now() //ssdlint:allow nondeterminism wall time feeds only throughput Stats, never task results
	pool := parallel.NewPool(spec.Workers)
	for _, i := range schedule(tasks) {
		i := i
		pool.Submit(func() {
			results[i] = runTask(&spec, cache, scopeFolds, tasks[i])
		})
	}
	pool.Close()
	wall := time.Since(start) //ssdlint:allow nondeterminism wall time feeds only throughput Stats, never task results

	cs := cache.Stats()
	workers := spec.Workers
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	stats := Stats{
		Workers:         workers,
		Tasks:           len(tasks),
		WallSeconds:     wall.Seconds(),
		TasksPerSec:     float64(len(tasks)) / wall.Seconds(),
		CacheHits:       cs.Hits,
		CacheMisses:     cs.Misses,
		CacheEvictions:  cs.Evictions,
		PeakMatrixBytes: cs.PeakBytes,
	}
	if cs.Hits+cs.Misses > 0 {
		stats.CacheHitRate = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
	}
	for i := range results {
		r := &results[i]
		stats.WaitSeconds += r.WaitSeconds
		stats.FitSeconds += r.FitSeconds
		stats.ScoreSeconds += r.ScoreSeconds
		stats.EvalSeconds += r.EvalSeconds
	}
	return &Result{Tasks: results, Stats: stats}, nil
}

// stageClock splits a task's wall time into consecutive stages.
type stageClock struct{ last time.Time }

// lap returns the seconds since the previous lap (or the clock's start).
func (c *stageClock) lap() float64 {
	now := time.Now() //ssdlint:allow nondeterminism per-task stage times are diagnostic output, never a model input
	d := now.Sub(c.last).Seconds()
	c.last = now
	return d
}

// runTask executes one grid task end to end. The test fold is scored in
// place, row by row out of the cached base matrix; only the small
// training set is copied. res is a named result so the deferred
// wall-time stamp lands in the value the caller receives, on error
// returns too.
func runTask(spec *Spec, cache *MatrixCache, scopeFolds [][]int, t task) (res TaskResult) {
	res = TaskResult{Key: t.key}
	taskStart := time.Now() //ssdlint:allow nondeterminism per-task wall time is diagnostic output, never a model input
	//ssdlint:allow nondeterminism per-task wall time is diagnostic output, never a model input
	defer func() { res.Seconds = time.Since(taskStart).Seconds() }()
	clock := stageClock{last: taskStart}

	sc := &spec.Scopes[t.scopeIdx]
	base, err := cache.GetOrBuild(cellKey(spec, sc.Name, t.key.Lookahead), func() (*dataset.Matrix, error) {
		return buildBase(spec, sc, t.key.Lookahead)
	})
	res.WaitSeconds = clock.lap()
	if err != nil {
		res.Error = err.Error()
		return res
	}

	trainRows, testRows := splitRows(base, scopeFolds[t.scopeIdx], t.key.Fold,
		t.key.SampleSeed(spec.Seed), spec.DownsampleRatio)
	train := base.Subset(trainRows)
	y := make([]int8, len(testRows))
	for i, r := range testRows {
		y[i] = base.Y[r]
		if y[i] == 1 {
			res.TestPos++
		}
	}
	res.TrainRows, res.TestRows = train.Len(), len(testRows)
	res.TrainPos = train.Positives()
	if res.TrainPos == 0 || res.TestPos == 0 {
		res.Error = fmt.Sprintf("expgrid: %s: fold lacks positives (train %d, test %d); use more drives or fewer folds",
			t.key, res.TrainPos, res.TestPos)
		return res
	}

	clf := spec.Classifiers[t.clfIdx].New(t.key.Seed(spec.Seed))
	clock.lap() // the split belongs to no stage
	err = clf.Fit(train)
	res.FitSeconds = clock.lap()
	if err != nil {
		res.Error = fmt.Sprintf("expgrid: %s: %v", t.key, err)
		return res
	}
	scores := make([]float64, len(testRows))
	for i, r := range testRows {
		scores[i] = clf.Score(base.Row(r))
	}
	res.ScoreSeconds = clock.lap()
	res.AUC = eval.AUC(scores, y)
	res.EvalSeconds = clock.lap()
	if spec.KeepScores {
		res.Scores, res.Y = scores, y
		res.Ages = make([]int32, len(testRows))
		res.DriveIdx = make([]int32, len(testRows))
		for i, r := range testRows {
			res.Ages[i] = base.Age[r]
			res.DriveIdx[i] = base.DriveIdx[r]
		}
	}
	return res
}
