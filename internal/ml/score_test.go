package ml_test

import (
	"sync"
	"testing"

	"ssdfail/internal/ml"
	"ssdfail/internal/ml/knn"
	"ssdfail/internal/ml/logreg"
	"ssdfail/internal/ml/mltest"
	"ssdfail/internal/ml/neuralnet"
	"ssdfail/internal/ml/svm"
)

// scalingClassifiers are the four models that standardize each row they
// score, fitted on one fixture. Their Score once allocated per row.
func scalingClassifiers(t *testing.T) []ml.Classifier {
	t.Helper()
	train := mltest.TwoBlobs(150, 2, 1)
	nn := neuralnet.DefaultConfig()
	nn.Epochs = 10
	cs := []ml.Classifier{
		logreg.New(logreg.DefaultConfig()),
		knn.New(knn.DefaultConfig()),
		svm.New(svm.DefaultConfig()),
		neuralnet.New(nn),
	}
	for _, c := range cs {
		if err := c.Fit(train); err != nil {
			t.Fatal(err)
		}
	}
	return cs
}

// TestScoreAllocatesNothing pins the scoring kernels' contract: after one
// warm-up call has filled the scratch pool, Score allocates nothing.
func TestScoreAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector; alloc counts are only meaningful without -race")
	}
	row := mltest.TwoBlobs(1, 2, 2).Row(0)
	var sink float64
	for _, c := range scalingClassifiers(t) {
		sink += c.Score(row)
		if a := testing.AllocsPerRun(200, func() { sink += c.Score(row) }); a != 0 {
			t.Errorf("%s: Score allocates %.0f times per call, want 0", c.Name(), a)
		}
	}
	_ = sink
}

// TestScoreConcurrent scores one fitted model from eight goroutines at
// once: pooled scratch must not be shared state, so every goroutine
// reads the single-threaded scores bit for bit. Run under -race.
func TestScoreConcurrent(t *testing.T) {
	test := mltest.TwoBlobs(100, 2, 2)
	for _, c := range scalingClassifiers(t) {
		want := ml.ScoreBatch(c, test)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < test.Len(); i++ {
					if got := c.Score(test.Row(i)); got != want[i] {
						t.Errorf("%s: concurrent Score(row %d) = %v, single-threaded %v", c.Name(), i, got, want[i])
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
