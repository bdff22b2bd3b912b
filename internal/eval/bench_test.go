package eval

import (
	"math"
	"testing"
)

// benchData builds n pooled scores with a ~3% positive rate and ages
// spread over two years, matching the shape of Figure 13–15 inputs.
func benchData(n int) (scores []float64, y []int8, ages []int32) {
	state := uint64(42)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / (1 << 53)
	}
	scores = make([]float64, n)
	y = make([]int8, n)
	ages = make([]int32, n)
	for i := range scores {
		scores[i] = next()
		if next() < 0.03 {
			y[i] = 1
		}
		ages[i] = int32(next() * 730)
	}
	return
}

// benchThresholds is a Figure-14-style dense sweep: the regression these
// benchmarks guard is the per-threshold recount of class totals, whose
// cost scales with len(thresholds) * n instead of n.
var benchThresholds = func() []float64 {
	var t []float64
	for v := 0.05; v < 1; v += 0.05 {
		t = append(t, math.Round(v*100)/100)
	}
	return t
}()

// BenchmarkAUC is one grid task's evaluation stage: the rank AUC of a
// test fold's ~24 k scores.
func BenchmarkAUC(b *testing.B) {
	scores, y, _ := benchData(24000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AUC(scores, y)
	}
}

func BenchmarkTPRByAgeMonths(b *testing.B) {
	scores, y, ages := benchData(200000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TPRByAgeMonths(scores, y, ages, benchThresholds, 25)
	}
}

func BenchmarkTPRByAgeMonthPerThreshold(b *testing.B) {
	// The pre-hoist shape Figure 14 used: one call per threshold.
	scores, y, ages := benchData(200000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, thr := range benchThresholds {
			TPRByAgeMonths(scores, y, ages, []float64{thr}, 25)
		}
	}
}
