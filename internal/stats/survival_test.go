package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// newTestRand returns a seeded math/rand source for property tests.
func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestKaplanMeierNoCensoring(t *testing.T) {
	// Without censoring, KM equals the empirical survival function.
	obs := []Observation{{1, false}, {2, false}, {3, false}, {4, false}}
	km := NewKaplanMeier(obs)
	cases := []struct{ t, want float64 }{
		{0.5, 1}, {1, 0.75}, {2.5, 0.5}, {4, 0}, {10, 0},
	}
	for _, c := range cases {
		if got := km.Survival(c.t); !almostEq(got, c.want, 1e-12) {
			t.Errorf("S(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestKaplanMeierTextbookExample(t *testing.T) {
	// Classic worked example: events at 6 (3x), 7, 10, 13, 16, 22, 23;
	// censored at 6, 9, 10, 11, 17, 19, 20, 25, 32, 32, 34, 35
	// (Freireich leukemia data, 6-MP arm). S(6) = 0.857, S(10) = 0.753.
	obs := []Observation{
		{6, false}, {6, false}, {6, false}, {6, true},
		{7, false}, {9, true}, {10, false}, {10, true}, {11, true},
		{13, false}, {16, false}, {17, true}, {19, true}, {20, true},
		{22, false}, {23, false}, {25, true}, {32, true}, {32, true},
		{34, true}, {35, true},
	}
	km := NewKaplanMeier(obs)
	if got := km.Survival(6); !almostEq(got, 0.857, 0.001) {
		t.Errorf("S(6) = %.4f, want 0.857", got)
	}
	if got := km.Survival(10); !almostEq(got, 0.753, 0.001) {
		t.Errorf("S(10) = %.4f, want 0.753", got)
	}
	if got := km.Median(); got != 23 {
		t.Errorf("median = %v, want 23", got)
	}
}

func TestKaplanMeierAllCensored(t *testing.T) {
	obs := []Observation{{5, true}, {10, true}}
	km := NewKaplanMeier(obs)
	if got := km.Survival(100); got != 1 {
		t.Errorf("all-censored survival = %v, want 1", got)
	}
	if got := km.Median(); !math.IsInf(got, 1) {
		t.Errorf("all-censored median = %v, want +Inf", got)
	}
}

func TestKaplanMeierEmpty(t *testing.T) {
	km := NewKaplanMeier(nil)
	if km.Survival(1) != 1 || km.CDF(1) != 0 {
		t.Error("empty estimator should be the unit survival function")
	}
}

// Property: the KM survival function is nonincreasing in t and within
// [0, 1]; censoring can only raise it pointwise relative to treating
// censored observations as events.
func TestKaplanMeierMonotoneProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := newTestRand(seed)
		n := 5 + rng.Intn(50)
		obs := make([]Observation, n)
		asEvents := make([]Observation, n)
		for i := range obs {
			tm := float64(1 + rng.Intn(30))
			cens := rng.Intn(3) == 0
			obs[i] = Observation{tm, cens}
			asEvents[i] = Observation{tm, false}
		}
		km := NewKaplanMeier(obs)
		kmAll := NewKaplanMeier(asEvents)
		prev := 1.0
		for tt := 0.0; tt <= 31; tt++ {
			s := km.Survival(tt)
			if s < -1e-12 || s > 1+1e-12 || s > prev+1e-12 {
				return false
			}
			if s+1e-12 < kmAll.Survival(tt) {
				return false // censoring must not lower survival
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
