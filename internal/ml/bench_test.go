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
	"ssdfail/internal/ml/vec"
)

var benchSink float64

// BenchmarkScore times per-row Score of each Table 6 classifier on a
// fixture sized like one grid fold — 500 training rows, 4096 test rows —
// so the per-layer scoring cost can be re-read without ssdbench. One
// operation is one pass over the test rows. BenchmarkScore/<classifier>
// runs the path the host picks; on AVX2 hosts BenchmarkScore/scalar/
// times k-NN and the net again on their scalar loops.
func BenchmarkScore(b *testing.B) {
	train := mltest.TwoBlobs(250, 2, 1)
	test := mltest.TwoBlobs(2048, 2, 2)
	forestCfg := forest.DefaultConfig()
	forestCfg.Trees = 50
	forestCfg.Workers = 1
	run := func(b *testing.B, cs ...ml.Classifier) {
		for _, c := range cs {
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
	run(b,
		logreg.New(logreg.DefaultConfig()),
		knn.New(knn.DefaultConfig()),
		svm.New(svm.DefaultConfig()),
		neuralnet.New(neuralnet.DefaultConfig()),
		tree.New(tree.DefaultConfig()),
		forest.New(forestCfg),
	)
	if vec.AVX2 {
		b.Run("scalar", func(b *testing.B) {
			vec.AVX2 = false
			defer func() { vec.AVX2 = true }()
			run(b, knn.New(knn.DefaultConfig()), neuralnet.New(neuralnet.DefaultConfig()))
		})
	}
}

// BenchmarkFit times Fit of each Table 6 classifier on a fold-sized
// training set — 500 rows — so the per-layer training cost can be
// re-read without ssdbench. One operation is one Fit of a fresh model.
// BenchmarkFit/<classifier> runs the path the host picks; on AVX2 hosts
// BenchmarkFit/scalar/ times k-NN and the net again on their scalar
// loops.
func BenchmarkFit(b *testing.B) {
	train := mltest.TwoBlobs(250, 2, 1)
	forestCfg := forest.DefaultConfig()
	forestCfg.Trees = 50
	forestCfg.Workers = 1
	run := func(b *testing.B, fs ...ml.Factory) {
		for _, f := range fs {
			b.Run(f().Name(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := f().Fit(train); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	knnFactory := knn.NewFactory(knn.DefaultConfig())
	netFactory := func() ml.Classifier { return neuralnet.New(neuralnet.DefaultConfig()) }
	run(b,
		logreg.NewFactory(logreg.DefaultConfig()),
		knnFactory,
		svm.NewFactory(svm.DefaultConfig()),
		netFactory,
		tree.NewFactory(tree.DefaultConfig()),
		forest.NewFactory(forestCfg),
	)
	if vec.AVX2 {
		b.Run("scalar", func(b *testing.B) {
			vec.AVX2 = false
			defer func() { vec.AVX2 = true }()
			run(b, knnFactory, netFactory)
		})
	}
}
