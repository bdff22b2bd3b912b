package fleetsim

import (
	"math"
	"testing"
	"testing/quick"

	"ssdfail/internal/rng"
)

// The simulator draws every distribution it samples from internal/rng;
// these tests pin those draws: seeded streams, moments and supports.

func TestRNGDeterminism(t *testing.T) {
	a := rng.New(123)
	b := rng.New(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := rng.New(124)
	same := 0
	a = rng.New(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds matched %d/1000 draws", same)
	}
}

func TestDeriveIndependentStreams(t *testing.T) {
	root := rng.New(7)
	a := root.Derive(1)
	b := root.Derive(2)
	a2 := root.Derive(1)
	if a.Uint64() != a2.Uint64() {
		t.Error("Derive with same stream should be deterministic")
	}
	matches := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			matches++
		}
	}
	if matches > 2 {
		t.Errorf("derived streams overlapped %d/1000", matches)
	}
}

func TestFloat64Range(t *testing.T) {
	r := rng.New(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := rng.New(2)
	var sum float64
	n := 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if m := sum / float64(n); math.Abs(m-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ~0.5", m)
	}
}

func TestIntn(t *testing.T) {
	r := rng.New(3)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[r.Intn(10)]++
	}
	for b, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("Intn bin %d count %d far from uniform", b, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := rng.New(4)
	n := 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sum2 += x * x
	}
	mean := sum / float64(n)
	variance := sum2/float64(n) - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v", variance)
	}
}

func TestExpMean(t *testing.T) {
	r := rng.New(5)
	var sum float64
	n := 100000
	for i := 0; i < n; i++ {
		x := r.Exp(3.5)
		if x < 0 {
			t.Fatal("Exp produced negative value")
		}
		sum += x
	}
	if m := sum / float64(n); math.Abs(m-3.5) > 0.1 {
		t.Errorf("Exp mean = %v, want ~3.5", m)
	}
}

func TestWeibullShapeOne(t *testing.T) {
	// Weibull with shape 1 is exponential with the same scale.
	r := rng.New(6)
	var sum float64
	n := 100000
	for i := 0; i < n; i++ {
		sum += r.Weibull(2.0, 1.0)
	}
	if m := sum / float64(n); math.Abs(m-2.0) > 0.1 {
		t.Errorf("Weibull(2,1) mean = %v, want ~2", m)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := rng.New(7)
	n := 50001
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.LogNormal(1.0, 0.7)
	}
	// Median of LN(mu, sigma) is exp(mu).
	lt := 0
	for _, x := range xs {
		if x < math.E {
			lt++
		}
	}
	frac := float64(lt) / float64(n)
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("P(LN < e^mu) = %v, want ~0.5", frac)
	}
}

func TestParetoSupport(t *testing.T) {
	r := rng.New(8)
	for i := 0; i < 10000; i++ {
		if x := r.Pareto(5, 1.2); x < 5 {
			t.Fatalf("Pareto below minimum: %v", x)
		}
	}
	// P(X > 10) for Pareto(5, 1) is 0.5.
	over := 0
	n := 100000
	for i := 0; i < n; i++ {
		if r.Pareto(5, 1) > 10 {
			over++
		}
	}
	if frac := float64(over) / float64(n); math.Abs(frac-0.5) > 0.02 {
		t.Errorf("Pareto tail fraction = %v, want ~0.5", frac)
	}
}

func TestPoissonMean(t *testing.T) {
	r := rng.New(9)
	for _, mean := range []float64{0.1, 2, 25, 100} {
		var sum float64
		n := 50000
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / float64(n)
		if math.Abs(got-mean) > mean*0.05+0.02 {
			t.Errorf("Poisson(%v) mean = %v", mean, got)
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Error("Poisson of non-positive mean should be 0")
	}
}

func TestBinomial(t *testing.T) {
	r := rng.New(10)
	for _, c := range []struct {
		n uint64
		p float64
	}{{10, 0.3}, {100, 0.7}, {1000, 0.01}} {
		var sum float64
		trials := 20000
		for i := 0; i < trials; i++ {
			k := r.Binomial(c.n, c.p)
			if k > c.n {
				t.Fatalf("Binomial(%d,%v) = %d exceeds n", c.n, c.p, k)
			}
			sum += float64(k)
		}
		want := float64(c.n) * c.p
		if got := sum / float64(trials); math.Abs(got-want) > want*0.05+0.1 {
			t.Errorf("Binomial(%d,%v) mean = %v, want %v", c.n, c.p, got, want)
		}
	}
	if r.Binomial(0, 0.5) != 0 || r.Binomial(10, 0) != 0 {
		t.Error("degenerate binomial should be 0")
	}
	if r.Binomial(10, 1) != 10 {
		t.Error("Binomial(n, 1) should be n")
	}
}

func TestGeometricMean(t *testing.T) {
	r := rng.New(11)
	p := 0.25
	var sum float64
	n := 100000
	for i := 0; i < n; i++ {
		sum += float64(r.Geometric(p))
	}
	want := (1 - p) / p
	if got := sum / float64(n); math.Abs(got-want) > 0.1 {
		t.Errorf("Geometric(%v) mean = %v, want %v", p, got, want)
	}
	if r.Geometric(1) != 0 {
		t.Error("Geometric(1) should be 0")
	}
}

func TestBernoulliEdge(t *testing.T) {
	r := rng.New(12)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

// Property: derived streams are reproducible functions of (seed, stream).
func TestDeriveReproducibleProperty(t *testing.T) {
	prop := func(seed, stream uint64) bool {
		a := rng.New(seed).Derive(stream)
		b := rng.New(seed).Derive(stream)
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
