package knn_test

import (
	"fmt"
	"sync"
	"testing"

	"ssdfail/internal/dataset"
	"ssdfail/internal/experiments"
	"ssdfail/internal/expgrid"
	"ssdfail/internal/ml"
	"ssdfail/internal/ml/knn"
	"ssdfail/internal/ml/vec"
)

// capture is a grid classifier that keeps what its task hands it: the
// training matrix, and a copy of every row it is asked to score. Tasks
// other than the captured one get a capture with keep unset.
type capture struct {
	keep  bool
	train *dataset.Matrix
	test  [][]float64
}

func (c *capture) Name() string { return "k-NN" }

func (c *capture) Fit(m *dataset.Matrix) error {
	if c.keep {
		c.train = m
	}
	return nil
}

func (c *capture) Score(x []float64) float64 {
	if c.keep {
		c.test = append(c.test, append([]float64(nil), x...))
	}
	return 0
}

var (
	gridFoldOnce  sync.Once
	gridFoldsByN  map[int]*capture
	gridFoldErr   error
	gridLookahead = []int{1, 7}
)

// gridFold returns fold 0 of train_grid's Table 6 grid at the given
// lookahead (1 or 7), as the grid hands it to the k-NN task: the
// benchmark's fleet (150 drives per model, simulator seed 1, five folds,
// test negatives thinned to 0.2), the fold's training set downsampled
// 1:1, and its test rows.
func gridFold(b *testing.B, lookahead int) *capture {
	gridFoldOnce.Do(func() {
		cfg := experiments.DefaultConfig()
		cfg.Seed = 1
		cfg.DrivesPerModel = 150
		cfg.CVFolds = 5
		cfg.TestNegSampleProb = 0.2
		cfg.Workers = 1
		ctx, err := experiments.NewContext(cfg)
		if err != nil {
			gridFoldErr = err
			return
		}
		spec := ctx.GridSpec(gridLookahead...)
		kept := make(map[uint64]*capture)
		gridFoldsByN = make(map[int]*capture)
		for _, n := range gridLookahead {
			c := &capture{keep: true}
			kept[expgrid.TaskKey{Scope: "all", Classifier: "k-NN", Lookahead: n, Fold: 0}.Seed(spec.Seed)] = c
			gridFoldsByN[n] = c
		}
		spec.Classifiers = []expgrid.ClassifierSpec{{Label: "k-NN", New: func(seed uint64) ml.Classifier {
			if c := kept[seed]; c != nil {
				return c
			}
			return &capture{}
		}}}
		if _, err := expgrid.Run(spec); err != nil {
			gridFoldErr = err
		}
	})
	if gridFoldErr != nil {
		b.Fatal(gridFoldErr)
	}
	return gridFoldsByN[lookahead]
}

var benchSink float64

// BenchmarkScoreGridFold times k-NN's Score over one train_grid fold
// (gridFold) at each of the grid's lookaheads, where BenchmarkScore's
// three-feature blobs cannot show what the walk prunes: 76 training rows
// at lookahead 1, 454 at lookahead 7, about 24k test rows each. One
// operation is one pass over the fold's test rows. It reports the passes
// of eight rows the walk visited and the points it inserted into the k
// best, per query, counted by ScanCounts outside the timed loop.
// BenchmarkScoreGridFold/N=<n> runs the path the host picks; on AVX2
// hosts BenchmarkScoreGridFold/scalar/N=<n> times the scalar loop too.
func BenchmarkScoreGridFold(b *testing.B) {
	run := func(b *testing.B) {
		for _, n := range gridLookahead {
			b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
				fold := gridFold(b, n)
				m := knn.New(knn.DefaultConfig())
				if err := m.Fit(fold.train); err != nil {
					b.Fatal(err)
				}
				var passes, inserts int
				for _, x := range fold.test {
					_, p, n := m.ScanCounts(x)
					passes += p
					inserts += n
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, x := range fold.test {
						benchSink += m.Score(x)
					}
				}
				q := float64(len(fold.test))
				b.ReportMetric(float64(passes)/q, "passes/query")
				b.ReportMetric(float64(inserts)/q, "inserts/query")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/q, "ns/query")
			})
		}
	}
	run(b)
	if vec.AVX2 {
		b.Run("scalar", func(b *testing.B) {
			vec.AVX2 = false
			defer func() { vec.AVX2 = true }()
			run(b)
		})
	}
}
