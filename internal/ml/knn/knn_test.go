package knn

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"ssdfail/internal/dataset"
	"ssdfail/internal/fleetsim"
	"ssdfail/internal/ml/mltest"
	"ssdfail/internal/ml/vec"
)

// bothPaths runs f on the AVX2 kernel, where the host has one, and then
// on the scalar scan, by clearing vec.AVX2 around the second run.
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
	if auc := mltest.AUC(scores, test.Y); auc < 0.93 {
		t.Errorf("AUC = %.3f, want >= 0.93", auc)
	}
}

func TestHandlesNonlinearXOR(t *testing.T) {
	train := mltest.XOR(600, 1)
	test := mltest.XOR(300, 2)
	m := New(Config{K: 9})
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, test.Len())
	for i := range scores {
		scores[i] = m.Score(test.Row(i))
	}
	if auc := mltest.AUC(scores, test.Y); auc < 0.60 {
		t.Errorf("XOR AUC = %.3f; k-NN should beat chance", auc)
	}
}

func TestEmptyTrainingSetErrors(t *testing.T) {
	m := New(DefaultConfig())
	if err := m.Fit(&dataset.Matrix{}); err == nil {
		t.Error("Fit on empty set should error")
	}
	if s := m.Score(make([]float64, dataset.NumFeatures)); s != 0.5 {
		t.Errorf("unfitted Score = %v", s)
	}
}

func TestExactNeighborRecall(t *testing.T) {
	// Querying a training point with K=1 must return its own label.
	train := mltest.TwoBlobs(100, 4, 3)
	m := New(Config{K: 1})
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		got := m.Score(train.Row(i))
		want := float64(train.Y[i])
		if got != want {
			t.Fatalf("row %d: K=1 self score = %v, want %v", i, got, want)
		}
	}
}

// referenceScore is the specification Score is held to: every distance
// as a plain left-to-right sum, a stable sort by distance (so equal
// distances keep training-row order) of the rows at a finite distance —
// a row at +Inf or NaN is never a neighbor — and the inverse-distance
// vote summed in that order, 0.5 when no neighbor has weight.
func referenceScore(train *dataset.Matrix, k int, x []float64) float64 {
	sc := dataset.FitScaler(train)
	pts := sc.Apply(train)
	q := append([]float64(nil), x...)
	sc.Transform(q)
	type hit struct {
		dist float64
		row  int
	}
	var hits []hit
	for i := 0; i < pts.Len(); i++ {
		var s float64
		for f, v := range pts.Row(i) {
			d := q[f] - v
			s += float64(d * d)
		}
		if s < math.Inf(1) {
			hits = append(hits, hit{s, i})
		}
	}
	sort.SliceStable(hits, func(a, b int) bool { return hits[a].dist < hits[b].dist })
	if k <= 0 {
		k = 15
	}
	if k > len(hits) {
		k = len(hits)
	}
	var wPos, wAll float64
	for _, h := range hits[:k] {
		w := 1 / (1e-9 + h.dist)
		wAll += w
		if train.Y[h.row] == 1 {
			wPos += w
		}
	}
	if wAll == 0 {
		return 0.5
	}
	return wPos / wAll
}

// matchesReference fits fx's training set on the scan path vec.AVX2
// selects and holds every query's Score to referenceScore bit for bit.
func matchesReference(t *testing.T, fx fixture) {
	t.Helper()
	train := fx.matrix()
	m := New(Config{K: fx.k})
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	for qi, q := range fx.queries {
		if got, want := m.Score(q), referenceScore(train, fx.k, q); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s, query %d (AVX2 %v): Score = %v, reference %v", fx.name, qi, vec.AVX2, got, want)
		}
	}
}

// TestScoreMatchesReference holds Score to referenceScore bit for bit on
// random data at both row widths, with every training row stored four
// times, two under each label — so the k-th place usually falls
// inside a group of equal distances and only the (distance, row index)
// order picks the right labels — and with K below 1 (the default),
// small, and above the number of stored points; and then on every
// adversarial fixture. It runs on both scan paths.
func TestScoreMatchesReference(t *testing.T) { bothPaths(t, testScoreMatchesReference) }

func testScoreMatchesReference(t *testing.T) {
	for _, s := range adversarialSpecs() {
		matchesReference(t, s.fixture())
	}
	check := func(seed uint64, w, k int) bool {
		rng := fleetsim.NewRNG(seed)
		train := &dataset.Matrix{}
		if w != dataset.NumFeatures {
			train.Width = w
		}
		for i := 0; i < 20+int(seed%30); i++ {
			row := make([]float64, w)
			for f := range row {
				row[f] = rng.NormFloat64()
			}
			for c := 0; c < 4; c++ {
				train.X = append(train.X, row...)
				train.Y = append(train.Y, int8((i+c/2)%2))
			}
		}
		train.DriveIdx = make([]int32, train.Len())
		train.Day = make([]int32, train.Len())
		train.Age = make([]int32, train.Len())
		if k > 22 {
			k += train.Len() // more than is stored
		}
		m := New(Config{K: k})
		if err := m.Fit(train); err != nil {
			t.Error(err)
			return false
		}
		q := make([]float64, w)
		for trial := 0; trial < 6; trial++ {
			for f := range q {
				q[f] = rng.NormFloat64()
			}
			if trial == 0 {
				copy(q, train.Row(0)) // a stored point: distance 0, four ways
			}
			if got, want := m.Score(q), referenceScore(train, k, q); got != want {
				t.Errorf("seed %d K=%d width %d: Score = %v, reference %v", seed, k, w, got, want)
				return false
			}
		}
		return true
	}
	prop := func(seed uint64) bool {
		// 43 is a second width that is not a multiple of the 4-lane stride.
		for _, w := range []int{dataset.NumFeatures, 43} {
			for _, k := range []int{-1, 0, 1, 2, 4, 5, 7, 15, 22, 23} {
				if !check(seed, w, k) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPathsAgreeOnNonFiniteQueries scores queries holding NaN, ±Inf and
// values whose squares overflow on both scan paths: every distance is
// then +Inf or NaN for some rows, none of which may become a neighbor,
// and the two paths must still agree bit for bit.
func TestPathsAgreeOnNonFiniteQueries(t *testing.T) {
	if !vec.AVX2 {
		t.Skip("no AVX2 kernel on this host; the scalar scan is the only path")
	}
	train := mltest.TwoBlobs(101, 2, 4)
	kernel := New(DefaultConfig())
	if err := kernel.Fit(train); err != nil {
		t.Fatal(err)
	}
	vec.AVX2 = false
	scalar := New(DefaultConfig())
	err := scalar.Fit(train)
	vec.AVX2 = true
	if err != nil {
		t.Fatal(err)
	}
	rng := fleetsim.NewRNG(9)
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e200, -1e200}
	q := make([]float64, train.W())
	for trial := 0; trial < 200; trial++ {
		for f := range q {
			q[f] = rng.NormFloat64()
			if rng.Intn(64) == 0 {
				q[f] = odd[rng.Intn(len(odd))]
			}
		}
		a, b := kernel.Score(q), scalar.Score(q)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("trial %d: kernel path %v, scalar path %v", trial, a, b)
		}
	}
}

func TestFactory(t *testing.T) {
	c := NewFactory(DefaultConfig())()
	if c.Name() != "k-NN" {
		t.Errorf("Name = %q", c.Name())
	}
}
