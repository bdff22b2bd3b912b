package ml_test

import (
	"testing"

	"ssdfail/internal/ml"
	"ssdfail/internal/ml/forest"
	"ssdfail/internal/ml/knn"
	"ssdfail/internal/ml/logreg"
	"ssdfail/internal/ml/mltest"
	"ssdfail/internal/ml/neuralnet"
	"ssdfail/internal/ml/svm"
	"ssdfail/internal/ml/tree"
)

var benchSink float64

// BenchmarkScore times per-row Score of each Table 6 classifier on a
// fixture sized like one grid fold — 500 training rows, 4096 test rows —
// so the per-layer scoring cost can be re-read without ssdbench. One
// operation is one pass over the test rows.
func BenchmarkScore(b *testing.B) {
	train := mltest.TwoBlobs(250, 2, 1)
	test := mltest.TwoBlobs(2048, 2, 2)
	forestCfg := forest.DefaultConfig()
	forestCfg.Trees = 50
	forestCfg.Workers = 1
	for _, c := range []ml.Classifier{
		logreg.New(logreg.DefaultConfig()),
		knn.New(knn.DefaultConfig()),
		svm.New(svm.DefaultConfig()),
		neuralnet.New(neuralnet.DefaultConfig()),
		tree.New(tree.DefaultConfig()),
		forest.New(forestCfg),
	} {
		if err := c.Fit(train); err != nil {
			b.Fatal(err)
		}
		b.Run(c.Name(), func(b *testing.B) {
			benchSink += c.Score(test.Row(0)) // fills the model's scratch pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < test.Len(); r++ {
					benchSink += c.Score(test.Row(r))
				}
			}
		})
	}
}
