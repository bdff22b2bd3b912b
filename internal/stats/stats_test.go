package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {-1, 1}, {2, 4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of empty should be NaN")
	}
	if !math.IsNaN(Quantile(xs, math.NaN())) {
		t.Error("Quantile at NaN should be NaN")
	}
	// Input must not be modified.
	if xs[0] != 3 {
		t.Error("Quantile modified its input")
	}
}

func TestQuantilesBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	qs := []float64{0.1, 0.25, 0.5, 0.75, 0.9}
	batch := Quantiles(xs, qs...)
	for i, q := range qs {
		if got := Quantile(xs, q); !almostEq(got, batch[i], 1e-12) {
			t.Errorf("Quantiles[%v] = %v, want %v", q, batch[i], got)
		}
	}
}

func TestRanksNoTies(t *testing.T) {
	got := Ranks([]float64{30, 10, 20})
	want := []float64{3, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

func TestRanksWithTies(t *testing.T) {
	got := Ranks([]float64{1, 2, 2, 3})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
	// All equal: every rank is the average (n+1)/2.
	got = Ranks([]float64{7, 7, 7})
	for _, r := range got {
		if r != 2 {
			t.Fatalf("Ranks of constant = %v", got)
		}
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !almostEq(got, 1, 1e-12) {
		t.Errorf("perfect linear Pearson = %v", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !almostEq(got, -1, 1e-12) {
		t.Errorf("perfect negative Pearson = %v", got)
	}
	if !math.IsNaN(Pearson(xs, []float64{1, 1, 1, 1, 1})) {
		t.Error("Pearson with zero variance should be NaN")
	}
	if !math.IsNaN(Pearson(xs, xs[:3])) {
		t.Error("Pearson with mismatched lengths should be NaN")
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Spearman detects any monotone relationship as 1, even nonlinear.
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(x) // monotone, very nonlinear
	}
	if got := Spearman(xs, ys); !almostEq(got, 1, 1e-12) {
		t.Errorf("Spearman of monotone = %v, want 1", got)
	}
	// Pearson of the same data is well below 1.
	if p := Pearson(xs, ys); p > 0.95 {
		t.Errorf("Pearson of convex monotone unexpectedly high: %v", p)
	}
}

func TestSpearmanIndependentNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 5000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	if got := Spearman(xs, ys); math.Abs(got) > 0.05 {
		t.Errorf("Spearman of independent samples = %v, want ~0", got)
	}
}

func TestCorrelationMatrix(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{4, 3, 2, 1}
	c := []float64{1, 3, 2, 4}
	m := CorrelationMatrix([][]float64{a, b, c}, Spearman)
	if len(m) != 3 {
		t.Fatalf("matrix size %d", len(m))
	}
	for i := 0; i < 3; i++ {
		if m[i][i] != 1 {
			t.Errorf("diagonal [%d][%d] = %v", i, i, m[i][i])
		}
		for j := 0; j < 3; j++ {
			if m[i][j] != m[j][i] {
				t.Errorf("asymmetric at (%d,%d)", i, j)
			}
		}
	}
	if !almostEq(m[0][1], -1, 1e-12) {
		t.Errorf("m[0][1] = %v, want -1", m[0][1])
	}
}

func TestBinnedRate(t *testing.T) {
	got := BinnedRate([]float64{1, 2, 3}, []float64{10, 0, 6})
	if got[0] != 0.1 || !math.IsNaN(got[1]) || got[2] != 0.5 {
		t.Errorf("BinnedRate = %v", got)
	}
}

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 4})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 0.75}, {4, 1}, {99, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); !almostEq(got, c.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if e.N() != 4 {
		t.Errorf("N = %d", e.N())
	}
	if e.CensoredFraction() != 0 {
		t.Errorf("CensoredFraction = %v", e.CensoredFraction())
	}
	var empty ECDF
	if !math.IsNaN(empty.At(1)) {
		t.Error("At on empty ECDF should be NaN")
	}
}

func TestECDFCensored(t *testing.T) {
	// 2 finite + 2 censored: finite mass tops out at 0.5.
	e := NewCensoredECDF([]float64{1, 2}, 2)
	if got := e.At(100); got != 0.5 {
		t.Errorf("At(100) = %v, want 0.5", got)
	}
	if got := e.CensoredFraction(); got != 0.5 {
		t.Errorf("CensoredFraction = %v, want 0.5", got)
	}
	if got := NewCensoredECDF(nil, -3).infMass; got != 0 {
		t.Errorf("negative censored clamped to %d", got)
	}
}

func TestLinSpace(t *testing.T) {
	got := LinSpace(0, 10, 5)
	want := []float64{0, 2.5, 5, 7.5, 10}
	for i := range want {
		if !almostEq(got[i], want[i], 1e-12) {
			t.Fatalf("LinSpace = %v", got)
		}
	}
	if got := LinSpace(3, 9, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("LinSpace n=1 = %v", got)
	}
	if LinSpace(0, 1, 0) != nil {
		t.Error("LinSpace n=0 should be nil")
	}
}

// Property: Spearman is invariant under strictly monotone transforms.
func TestSpearmanMonotoneInvarianceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = xs[i]*0.5 + rng.NormFloat64()
		}
		base := Spearman(xs, ys)
		tx := make([]float64, n)
		for i, x := range xs {
			tx[i] = math.Exp(x) // strictly increasing
		}
		return almostEq(base, Spearman(tx, ys), 1e-9)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: ECDF.At is nondecreasing and bounded by 1 - censoredFraction.
func TestECDFMonotoneProperty(t *testing.T) {
	prop := func(seed int64, censoredRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		censored := int(censoredRaw % 20)
		e := NewCensoredECDF(xs, censored)
		prev := 0.0
		for _, x := range LinSpace(-40, 40, 81) {
			p := e.At(x)
			if p < prev-1e-12 || p > 1-e.CensoredFraction()+1e-12 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
