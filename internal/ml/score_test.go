package ml_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"
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

// bothPaths runs f with the AVX2 kernels, where the host has them, and
// then on the scalar loops, by clearing vec.AVX2 around the second run.
// k-NN and the net pick their path at Fit, so f must fit its own models.
func bothPaths(t *testing.T, f func(t *testing.T)) {
	if vec.AVX2 {
		t.Run("avx2", f)
		vec.AVX2 = false
		defer func() { vec.AVX2 = true }()
	}
	t.Run("scalar", f)
}

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
func TestScoreAllocatesNothing(t *testing.T) { bothPaths(t, testScoreAllocatesNothing) }

func testScoreAllocatesNothing(t *testing.T) {
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
func TestScoreConcurrent(t *testing.T) { bothPaths(t, testScoreConcurrent) }

func testScoreConcurrent(t *testing.T) {
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

// wantScoreHashes are FNV-1a hashes of the float64 bits of every score
// TestScoreHashes computes, recorded from the scalar implementation
// before the AVX2 kernels existed (on amd64, which never contracts a
// multiply and an add into one FMA). A one-ulp drift in any score
// changes its hash, where the Table 6 golden's 1e-9 tolerance would
// not notice it.
var wantScoreHashes = map[string]uint64{
	"Logistic Reg.":  0x5317c27bb346813a,
	"k-NN":           0xe3269d6c03d4b3e3,
	"SVM":            0xaa48d3c9681ef6c8,
	"Neural Network": 0xc46f9dd7d810ef53,
	"Decision Tree":  0xd4ef0fe0d7d831bf,
	"Random Forest":  0x263c619a7134e848,
}

// TestScoreHashes fits the six Table 6 classifiers on a seeded fixture
// (406 training rows: not a whole number of kernel passes) and pins the
// bits of all 1200 test scores of each, on both paths.
func TestScoreHashes(t *testing.T) { bothPaths(t, testScoreHashes) }

func testScoreHashes(t *testing.T) {
	train := mltest.TwoBlobs(203, 1.5, 7)
	test := mltest.TwoBlobs(600, 1.5, 8)
	fc := forest.DefaultConfig()
	fc.Trees = 20
	nn := neuralnet.DefaultConfig()
	nn.Epochs = 20
	for _, c := range []ml.Classifier{
		logreg.New(logreg.DefaultConfig()),
		knn.New(knn.DefaultConfig()),
		svm.New(svm.DefaultConfig()),
		neuralnet.New(nn),
		tree.New(tree.DefaultConfig()),
		forest.New(fc),
	} {
		if err := c.Fit(train); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [8]byte
		for i := 0; i < test.Len(); i++ {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c.Score(test.Row(i))))
			h.Write(buf[:])
		}
		if got, want := h.Sum64(), wantScoreHashes[c.Name()]; got != want {
			t.Errorf("%s: score hash %#016x, want %#016x", c.Name(), got, want)
		}
	}
}
