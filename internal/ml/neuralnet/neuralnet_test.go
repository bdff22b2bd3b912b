package neuralnet

import (
	"testing"

	"ssdfail/internal/dataset"
	"ssdfail/internal/ml"
	"ssdfail/internal/ml/mltest"
	"ssdfail/internal/ml/vec"
)

// bothPaths runs f on the AVX2 kernel, where the host has one, and then
// on the scalar loops, by clearing vec.AVX2 around the second run.
func bothPaths(t *testing.T, f func(t *testing.T)) {
	if vec.AVX2 {
		t.Run("avx2", f)
		vec.AVX2 = false
		defer func() { vec.AVX2 = true }()
	}
	t.Run("scalar", f)
}

func TestLearnsSeparableBlobs(t *testing.T) {
	train := mltest.TwoBlobs(300, 3, 1)
	test := mltest.TwoBlobs(150, 3, 2)
	m := New(DefaultConfig())
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, test.Len())
	for i := range scores {
		scores[i] = m.Score(test.Row(i))
	}
	if auc := mltest.AUC(scores, test.Y); auc < 0.95 {
		t.Errorf("AUC = %.3f, want >= 0.95", auc)
	}
}

func TestHandlesNonlinearXOR(t *testing.T) {
	train := mltest.XOR(1000, 1)
	test := mltest.XOR(400, 2)
	cfg := DefaultConfig()
	cfg.Epochs = 150
	m := New(cfg)
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, test.Len())
	for i := range scores {
		scores[i] = m.Score(test.Row(i))
	}
	if auc := mltest.AUC(scores, test.Y); auc < 0.80 {
		t.Errorf("XOR AUC = %.3f; an MLP should solve XOR", auc)
	}
}

func TestScoreRange(t *testing.T) {
	train := mltest.TwoBlobs(100, 2, 3)
	m := New(DefaultConfig())
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < train.Len(); i++ {
		if s := m.Score(train.Row(i)); s < 0 || s > 1 {
			t.Fatalf("score %v outside [0,1]", s)
		}
	}
}

func TestEmptyTrainingSetErrors(t *testing.T) {
	m := New(DefaultConfig())
	if err := m.Fit(&dataset.Matrix{}); err == nil {
		t.Error("Fit on empty set should error")
	}
	if s := m.Score(make([]float64, dataset.NumFeatures)); s != 0.5 {
		t.Errorf("untrained Score = %v", s)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	train := mltest.TwoBlobs(120, 2, 4)
	cfg := DefaultConfig()
	cfg.Epochs = 10
	a, b := New(cfg), New(cfg)
	if err := a.Fit(train); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(train); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if a.Score(train.Row(i)) != b.Score(train.Row(i)) {
			t.Fatal("same-seed networks disagree")
		}
	}
}

func TestSingleHiddenLayer(t *testing.T) {
	train := mltest.TwoBlobs(200, 3, 5)
	m := New(Config{Hidden: []int{8}, LearnRate: 3e-3, Epochs: 40, BatchSize: 32, Seed: 1})
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, train.Len())
	for i := range scores {
		scores[i] = m.Score(train.Row(i))
	}
	if auc := mltest.AUC(scores, train.Y); auc < 0.9 {
		t.Errorf("single-hidden-layer train AUC = %.3f", auc)
	}
}

// naiveForward is the forward pass one output unit at a time: bias
// first, then the inputs left to right.
func naiveForward(m *Model, x []float64) float64 {
	act := append([]float64(nil), x...)
	m.scaler.Transform(act)
	for li, l := range m.layers {
		out := make([]float64, l.out)
		for o := range out {
			s := l.b[o]
			for i, v := range act {
				s += float64(l.w[o*l.in+i] * v)
			}
			if li < len(m.layers)-1 && s < 0 {
				s = 0
			}
			out[o] = s
		}
		act = out
	}
	return ml.Sigmoid(act[0])
}

// TestBlockedForwardMatchesNaive pins the blocked forward — the kernel's
// and the scalar loop's — to the per-unit one bit for bit, on layer
// widths that are and are not multiples of four and of sixteen.
func TestBlockedForwardMatchesNaive(t *testing.T) { bothPaths(t, testBlockedForwardMatchesNaive) }

func testBlockedForwardMatchesNaive(t *testing.T) {
	train := mltest.TwoBlobs(200, 2, 1)
	test := mltest.TwoBlobs(100, 2, 2)
	for _, hidden := range [][]int{{32, 16}, {7}, {6, 3}, {20, 12, 5}} {
		cfg := DefaultConfig()
		cfg.Hidden = hidden
		cfg.Epochs = 10
		m := New(cfg)
		if err := m.Fit(train); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < test.Len(); i++ {
			if got, want := m.Score(test.Row(i)), naiveForward(m, test.Row(i)); got != want {
				t.Fatalf("hidden %v row %d: Score = %v, naive forward %v", hidden, i, got, want)
			}
		}
	}
}
