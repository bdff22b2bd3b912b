package eval

import (
	"math"
	"testing"

	"ssdfail/internal/rng"
)

func TestBrierScore(t *testing.T) {
	// Perfect predictions score 0.
	if got := BrierScore([]float64{1, 0, 1}, []int8{1, 0, 1}); got != 0 {
		t.Errorf("perfect Brier = %v", got)
	}
	// Constant 0.5 scores 0.25.
	if got := BrierScore([]float64{0.5, 0.5}, []int8{1, 0}); got != 0.25 {
		t.Errorf("coin-flip Brier = %v", got)
	}
	// Confidently wrong scores 1.
	if got := BrierScore([]float64{0, 1}, []int8{1, 0}); got != 1 {
		t.Errorf("inverted Brier = %v", got)
	}
	if !math.IsNaN(BrierScore(nil, nil)) {
		t.Error("empty Brier should be NaN")
	}
}

func TestReliabilityCurvePerfectCalibration(t *testing.T) {
	// Labels drawn with probability equal to the score: the observed
	// rate per bin must track the predicted rate.
	rng := rng.New(3)
	n := 200000
	scores := make([]float64, n)
	y := make([]int8, n)
	for i := range scores {
		scores[i] = rng.Float64()
		if rng.Bernoulli(scores[i]) {
			y[i] = 1
		}
	}
	pred, obs := ReliabilityCurve(scores, y, 10)
	for b := range pred {
		if math.IsNaN(pred[b]) {
			continue
		}
		if math.Abs(pred[b]-obs[b]) > 0.02 {
			t.Errorf("bin %d: predicted %.3f observed %.3f", b, pred[b], obs[b])
		}
	}
	if ece := ExpectedCalibrationError(scores, y, 10); ece > 0.01 {
		t.Errorf("ECE of calibrated scores = %v", ece)
	}
}

func TestReliabilityCurveMiscalibrated(t *testing.T) {
	// Scores say 0.9 but the true rate is 0.5.
	rng := rng.New(4)
	n := 20000
	scores := make([]float64, n)
	y := make([]int8, n)
	for i := range scores {
		scores[i] = 0.9
		if rng.Bernoulli(0.5) {
			y[i] = 1
		}
	}
	if ece := ExpectedCalibrationError(scores, y, 10); ece < 0.3 {
		t.Errorf("ECE of miscalibrated scores = %v, want ~0.4", ece)
	}
}

func TestReliabilityCurveEmptyBins(t *testing.T) {
	pred, obs := ReliabilityCurve([]float64{0.05}, []int8{0}, 10)
	if math.IsNaN(pred[0]) || pred[0] != 0.05 {
		t.Errorf("bin 0 predicted = %v", pred[0])
	}
	for b := 1; b < 10; b++ {
		if !math.IsNaN(pred[b]) || !math.IsNaN(obs[b]) {
			t.Fatalf("empty bin %d not NaN", b)
		}
	}
	// Out-of-range scores clamp into edge bins without panicking.
	pred, _ = ReliabilityCurve([]float64{-0.5, 1.5}, []int8{0, 1}, 4)
	if math.IsNaN(pred[0]) || math.IsNaN(pred[3]) {
		t.Error("clamped scores should land in edge bins")
	}
	if !math.IsNaN(ExpectedCalibrationError(nil, nil, 5)) {
		t.Error("empty ECE should be NaN")
	}
}
