// Package stats implements the nonparametric statistics used by the
// paper's characterization: empirical CDFs (including CDFs with an
// infinity mass, as in Figures 3 and 5), quantiles, rank transforms,
// Spearman and Pearson correlation, and binned rates.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the common default).
// It returns NaN for empty input and does not modify xs.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, q)
}

// QuantileSorted is Quantile for already-sorted input, without copying.
func QuantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Quantiles returns the quantiles of xs at each probability in qs,
// sorting xs only once.
func Quantiles(xs []float64, qs ...float64) []float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = QuantileSorted(sorted, q)
	}
	return out
}

// Ranks returns the fractional ranks of xs (average rank for ties),
// with ranks starting at 1. This is the rank transform underlying the
// Spearman correlation.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// Pearson returns the Pearson correlation coefficient of (xs, ys).
// It returns NaN if the lengths differ, are < 2, or either side has
// zero variance.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns the Spearman rank correlation of (xs, ys): the
// Pearson correlation of the fractional ranks. The paper uses Spearman
// correlations (Table 2) because they capture arbitrary monotonic
// relationships, not just linear ones.
func Spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	return Pearson(Ranks(xs), Ranks(ys))
}

// CorrelationMatrix computes the matrix of pairwise correlations among
// the given named columns using the supplied correlation function
// (Spearman or Pearson). All columns must have equal length.
func CorrelationMatrix(cols [][]float64, corr func(a, b []float64) float64) [][]float64 {
	n := len(cols)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		m[i][i] = 1
	}
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			c := corr(cols[i], cols[j])
			m[i][j], m[j][i] = c, c
		}
	}
	return m
}

// BinnedRate computes, for each bin, events[i]/exposure[i] (NaN when the
// exposure is zero). It is the normalization the paper applies in
// Figures 6 and 8 to turn raw counts into unbiased failure rates.
func BinnedRate(events, exposure []float64) []float64 {
	n := len(events)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		if i < len(exposure) && exposure[i] > 0 {
			out[i] = events[i] / exposure[i]
		} else {
			out[i] = math.NaN()
		}
	}
	return out
}
