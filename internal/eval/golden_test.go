package eval

import (
	"math"
	"testing"
)

// Golden-value tests: every case below is computed by hand from the
// definitions in §5.1, so a change in numerical behaviour (tie
// handling, one-class conventions, threshold orientation) fails with
// the exact expected number in the message.

const goldenTol = 1e-12

func approx(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= goldenTol
}

func TestAUCGoldenValues(t *testing.T) {
	cases := []struct {
		name   string
		scores []float64
		y      []int8
		want   float64
	}{
		// Perfect ranking: both positives above both negatives.
		{"perfect", []float64{0.9, 0.8, 0.2, 0.1}, []int8{1, 1, 0, 0}, 1.0},
		// Inverted ranking: positives below every negative.
		{"inverted", []float64{0.9, 0.8, 0.2, 0.1}, []int8{0, 0, 1, 1}, 0.0},
		// One positive tied with one of three negatives: of the 3
		// pos/neg pairs, 2 wins + 1 tie (half credit) = 2.5/3.
		{"tie-pos-neg", []float64{0.5, 0.5, 0.3, 0.1}, []int8{1, 0, 0, 0}, 2.5 / 3},
		// All scores identical: every pair ties, AUC is chance.
		{"all-tied", []float64{0.4, 0.4, 0.4, 0.4}, []int8{1, 0, 1, 0}, 0.5},
		// Single class present: convention is 0.5.
		{"one-class-pos", []float64{0.9, 0.1}, []int8{1, 1}, 0.5},
		{"one-class-neg", []float64{0.9, 0.1}, []int8{0, 0}, 0.5},
		{"empty", nil, nil, 0.5},
		// Hand-worked mixed case: scores {.1-,.2+,.3-,.4+,.5-,.6+}
		// (sign = label). Pairs: 3x3 = 9; wins for positives:
		// .2>{.1}=1, .4>{.1,.3}=2, .6>{.1,.3,.5}=3 -> 6/9.
		{"mixed", []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}, []int8{0, 1, 0, 1, 0, 1}, 6.0 / 9},
	}
	for _, c := range cases {
		if got := AUC(c.scores, c.y); !approx(got, c.want) {
			t.Errorf("%s: AUC = %v, want %v", c.name, got, c.want)
		}
	}
}

// bruteForceAUC computes AUC as the normalized Mann-Whitney U statistic
// by explicit pair counting: wins + ties/2 over all (pos, neg) pairs.
func bruteForceAUC(scores []float64, y []int8) float64 {
	var wins, pairs float64
	for i := range scores {
		if y[i] != 1 {
			continue
		}
		for j := range scores {
			if y[j] == 1 {
				continue
			}
			pairs++
			switch {
			case scores[i] > scores[j]:
				wins++
			case scores[i] == scores[j]:
				wins += 0.5
			}
		}
	}
	if pairs == 0 {
		return 0.5
	}
	return wins / pairs
}

// TestAUCMatchesMannWhitneyU cross-checks the rank-based AUC against
// O(n^2) pair counting on randomized score sets, including heavy ties.
func TestAUCMatchesMannWhitneyU(t *testing.T) {
	state := uint64(12345)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / (1 << 53)
	}
	for trial := 0; trial < 50; trial++ {
		n := 20 + trial*7
		scores := make([]float64, n)
		y := make([]int8, n)
		for i := range scores {
			// Quantize to one decimal so ties are common.
			scores[i] = math.Round(next()*10) / 10
			if next() < 0.3 {
				y[i] = 1
			}
		}
		got, want := AUC(scores, y), bruteForceAUC(scores, y)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d (n=%d): rank AUC %v != pair-count AUC %v", trial, n, got, want)
		}
	}
}

func TestTPRByAgeMonthsGolden(t *testing.T) {
	// Month 0: positives scored {0.9, 0.2}; month 1: positive {0.8};
	// month 2: no positives (NaN). Negatives must not affect TPR.
	scores := []float64{0.9, 0.2, 0.8, 0.95, 0.99}
	y := []int8{1, 1, 1, 0, 0}
	ages := []int32{5, 20, 40, 10, 70}
	got := TPRByAgeMonths(scores, y, ages, []float64{0.5, 0.85}, 3)
	want := [][]float64{
		{0.5, 1, math.NaN()}, // thr 0.5: month0 1/2, month1 1/1
		{0.5, 0, math.NaN()}, // thr 0.85: month0 1/2 (0.9), month1 0/1
	}
	for ti := range want {
		for m := range want[ti] {
			if !approx(got[ti][m], want[ti][m]) {
				t.Errorf("thr[%d] month %d = %v, want %v", ti, m, got[ti][m], want[ti][m])
			}
		}
	}
	// One threshold alone must agree with its row of the batched sweep.
	single := TPRByAgeMonths(scores, y, ages, []float64{0.5}, 3)[0]
	for m := range single {
		if !approx(single[m], got[0][m]) {
			t.Errorf("single-threshold month %d = %v, sweep gives %v", m, single[m], got[0][m])
		}
	}
}

func TestBrierScoreGolden(t *testing.T) {
	cases := []struct {
		name   string
		scores []float64
		y      []int8
		want   float64
	}{
		{"perfect", []float64{1, 0}, []int8{1, 0}, 0},
		{"constant-half", []float64{0.5, 0.5, 0.5, 0.5}, []int8{1, 0, 1, 0}, 0.25},
		// ((0.8-1)^2 + (0.3-0)^2) / 2 = (0.04 + 0.09) / 2.
		{"mixed", []float64{0.8, 0.3}, []int8{1, 0}, 0.065},
		{"empty", nil, nil, math.NaN()},
	}
	for _, c := range cases {
		if got := BrierScore(c.scores, c.y); !approx(got, c.want) {
			t.Errorf("%s: Brier = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestReliabilityCurveGolden(t *testing.T) {
	// Two bins: [0, 0.5) holds {0.1, 0.3} with one positive; [0.5, 1]
	// holds {0.7, 0.9, 1.0} with two positives.
	scores := []float64{0.1, 0.3, 0.7, 0.9, 1.0}
	y := []int8{0, 1, 1, 0, 1}
	pred, obs := ReliabilityCurve(scores, y, 2)
	wantPred := []float64{0.2, (0.7 + 0.9 + 1.0) / 3}
	wantObs := []float64{0.5, 2.0 / 3}
	for b := range wantPred {
		if !approx(pred[b], wantPred[b]) || !approx(obs[b], wantObs[b]) {
			t.Errorf("bin %d: (%v, %v), want (%v, %v)", b, pred[b], obs[b], wantPred[b], wantObs[b])
		}
	}
	// An empty bin reports NaN for both coordinates.
	pred, obs = ReliabilityCurve([]float64{0.9}, []int8{1}, 2)
	if !math.IsNaN(pred[0]) || !math.IsNaN(obs[0]) {
		t.Errorf("empty bin = (%v, %v), want NaN", pred[0], obs[0])
	}
}

func TestExpectedCalibrationErrorGolden(t *testing.T) {
	// Same two-bin setup as above: gaps |0.2-0.5| = 0.3 (2 rows) and
	// |0.8666…-0.6666…| = 0.2 (3 rows) -> weighted (2*0.3 + 3*0.2)/5.
	scores := []float64{0.1, 0.3, 0.7, 0.9, 1.0}
	y := []int8{0, 1, 1, 0, 1}
	want := (2*0.3 + 3*0.2) / 5
	if got := ExpectedCalibrationError(scores, y, 2); !approx(got, want) {
		t.Errorf("ECE = %v, want %v", got, want)
	}
	// Perfectly calibrated constant predictor: zero gap.
	if got := ExpectedCalibrationError([]float64{0.5, 0.5}, []int8{1, 0}, 1); !approx(got, 0) {
		t.Errorf("calibrated ECE = %v, want 0", got)
	}
}
