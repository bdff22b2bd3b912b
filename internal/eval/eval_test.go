package eval

import (
	"math"
	"testing"
	"testing/quick"

	"ssdfail/internal/fleetsim"
	"ssdfail/internal/ml/mltest"
)

func TestAUCKnownValues(t *testing.T) {
	if got := AUC([]float64{0.1, 0.4, 0.35, 0.8}, []int8{0, 0, 1, 1}); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("AUC = %v, want 0.75", got)
	}
	if got := AUC([]float64{0.9, 0.8, 0.1}, []int8{1, 1, 0}); got != 1 {
		t.Errorf("perfect AUC = %v", got)
	}
	if got := AUC([]float64{0.5, 0.5}, []int8{0, 1}); got != 0.5 {
		t.Errorf("tied AUC = %v", got)
	}
	if got := AUC([]float64{0.5}, []int8{1}); got != 0.5 {
		t.Errorf("single-class AUC = %v", got)
	}
}

// Property: rank AUC agrees with the independent reference in mltest.
func TestAUCMatchesReferenceProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := fleetsim.NewRNG(seed)
		n := 10 + int(seed%200)
		scores := make([]float64, n)
		y := make([]int8, n)
		for i := range scores {
			scores[i] = math.Round(rng.Float64()*20) / 20 // induce ties
			y[i] = int8(rng.Intn(2))
		}
		return math.Abs(AUC(scores, y)-mltest.AUC(scores, y)) < 1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the counting AUC equals the rank-sum AUC bit for bit — on
// few or many distinct scores (ties within and across classes), all
// scores equal, signed zeros, one class absent, a NaN (which takes the
// rank-sum path), and either class in the minority.
func TestAUCMatchesRanksProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := fleetsim.NewRNG(seed)
		n := 1 + int(seed%300)
		posRate := []float64{0, 0.03, 0.5, 0.97, 1}[seed%5]
		levels := []float64{1, 4, 50, 1 << 30}[(seed/5)%4]
		scores := make([]float64, n)
		y := make([]int8, n)
		for i := range scores {
			scores[i] = math.Round(rng.Float64()*levels) / levels
			if scores[i] == 0 && rng.Intn(2) == 0 {
				scores[i] = math.Copysign(0, -1)
			}
			if rng.Float64() < posRate {
				y[i] = 1
			}
		}
		if seed%7 == 0 {
			scores[rng.Intn(n)] = math.NaN()
		}
		got, want := AUC(scores, y), aucRanks(scores, y)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Logf("seed %d: AUC %v, rank-sum %v", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: trapezoid AUC of the ROC curve equals the rank AUC.
func TestROCTrapezoidMatchesRankAUC(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := fleetsim.NewRNG(seed)
		n := 20 + int(seed%100)
		scores := make([]float64, n)
		y := make([]int8, n)
		pos := false
		neg := false
		for i := range scores {
			scores[i] = math.Round(rng.Float64()*10) / 10
			y[i] = int8(rng.Intn(2))
			if y[i] == 1 {
				pos = true
			} else {
				neg = true
			}
		}
		if !pos || !neg {
			return true
		}
		roc := ComputeROC(scores, y)
		return math.Abs(roc.AUC()-AUC(scores, y)) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestROCShape(t *testing.T) {
	roc := ComputeROC([]float64{0.9, 0.7, 0.5, 0.3}, []int8{1, 0, 1, 0})
	// Curve starts at (0,0) and ends at (1,1), monotone nondecreasing.
	if roc.FPR[0] != 0 || roc.TPR[0] != 0 {
		t.Errorf("curve should start at origin")
	}
	last := len(roc.FPR) - 1
	if roc.FPR[last] != 1 || roc.TPR[last] != 1 {
		t.Errorf("curve should end at (1,1), got (%v,%v)", roc.FPR[last], roc.TPR[last])
	}
	for i := 1; i < len(roc.FPR); i++ {
		if roc.FPR[i] < roc.FPR[i-1] || roc.TPR[i] < roc.TPR[i-1] {
			t.Fatal("ROC curve not monotone")
		}
	}
}

func TestTPRAtFPR(t *testing.T) {
	roc := &ROC{FPR: []float64{0, 0.5, 1}, TPR: []float64{0, 0.8, 1}}
	if got := roc.TPRAtFPR(0.25); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("TPRAtFPR(0.25) = %v, want 0.4", got)
	}
	if got := roc.TPRAtFPR(2); got != 1 {
		t.Errorf("TPRAtFPR beyond range = %v", got)
	}
}

func TestConfusionAt(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.3, 0.1}
	y := []int8{1, 0, 1, 0}
	tpr, fpr := ConfusionAt(scores, y, 0.5)
	if tpr != 0.5 || fpr != 0.5 {
		t.Errorf("ConfusionAt(0.5) = %v, %v", tpr, fpr)
	}
	tpr, fpr = ConfusionAt(scores, y, 0.05)
	if tpr != 1 || fpr != 1 {
		t.Errorf("loose threshold = %v, %v", tpr, fpr)
	}
	tpr, fpr = ConfusionAt(nil, nil, 0.5)
	if tpr != 0 || fpr != 0 {
		t.Errorf("empty confusion = %v, %v", tpr, fpr)
	}
}

func TestTPRByAgeMonth(t *testing.T) {
	scores := []float64{0.9, 0.2, 0.8, 0.95}
	y := []int8{1, 1, 0, 1}
	ages := []int32{10, 40, 10, 3000}
	got := TPRByAgeMonth(scores, y, ages, 0.5, 3)
	if got[0] != 1 { // one positive in month 0, predicted
		t.Errorf("month 0 TPR = %v", got[0])
	}
	if got[1] != 0 { // one positive in month 1, missed
		t.Errorf("month 1 TPR = %v", got[1])
	}
	// Age beyond range clamps into the last bucket.
	if got[2] != 1 {
		t.Errorf("clamped month TPR = %v", got[2])
	}
}

func TestTPRByAgeMonthEmptyMonths(t *testing.T) {
	got := TPRByAgeMonth([]float64{0.9}, []int8{0}, []int32{5}, 0.5, 2)
	for _, v := range got {
		if !math.IsNaN(v) {
			t.Errorf("months without positives should be NaN, got %v", got)
		}
	}
}
