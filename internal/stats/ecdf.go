package stats

import (
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function over a finite
// sample, optionally carrying a point mass at +infinity for censored
// observations ("not observed to end", as in the paper's Figures 3 and 5
// where operational periods and repairs outlive the six-year trace).
type ECDF struct {
	sorted  []float64 // finite observations, ascending
	infMass int       // number of observations at +infinity (censored)
}

// NewECDF builds an ECDF from a finite sample. The input is copied.
func NewECDF(xs []float64) *ECDF {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// NewCensoredECDF builds an ECDF from finite observations plus a count of
// censored (infinite) observations.
func NewCensoredECDF(finite []float64, censored int) *ECDF {
	e := NewECDF(finite)
	if censored < 0 {
		censored = 0
	}
	e.infMass = censored
	return e
}

// N returns the total number of observations, including censored ones.
func (e *ECDF) N() int { return len(e.sorted) + e.infMass }

// CensoredFraction returns the share of probability mass at +infinity.
func (e *ECDF) CensoredFraction() float64 {
	if e.N() == 0 {
		return 0
	}
	return float64(e.infMass) / float64(e.N())
}

// At returns P(X <= x). Censored mass is never included for finite x.
func (e *ECDF) At(x float64) float64 {
	if e.N() == 0 {
		return math.NaN()
	}
	// Count of sorted values <= x.
	k := sort.SearchFloat64s(e.sorted, x)
	for k < len(e.sorted) && e.sorted[k] == x {
		k++
	}
	return float64(k) / float64(e.N())
}

// LinSpace returns n evenly spaced points between lo and hi inclusive.
func LinSpace(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	if n == 1 {
		out[0] = lo
		return out
	}
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + step*float64(i)
	}
	return out
}
