package bench

import (
	"math"
	"sort"
)

// tailCandidates are the percentiles a report may quote, ascending.
var tailCandidates = []float64{75, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a quoted percentile.
const minBeyond = 10

// SupportedTail returns the highest candidate percentile that has at
// least minBeyond of n samples beyond it, or 50 when none does.
func SupportedTail(n int) float64 {
	best := 50.0
	for _, p := range tailCandidates {
		// 1e-9 absorbs the representation error of 1 - p/100, so
		// exactly ten samples beyond still counts.
		if float64(n)*(1-p/100) >= minBeyond-1e-9 {
			best = p
		}
	}
	return best
}

// Percentile returns the nearest-rank p-th percentile of sorted (which
// must be ascending and non-empty).
func Percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Median returns the median of xs (mean of the two middle values for an
// even count), or 0 for an empty slice. xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Latencies collects per-operation latencies in milliseconds.
type Latencies []float64

// Summary is a latency sample's median, the fixed tail percentile a
// metric name promises, and whether the sample count supports that
// percentile under the minBeyond rule.
type Summary struct {
	N         int
	P50       float64
	Tail      float64
	Supported bool
}

// Summarize reports the median and the tailP-th percentile.
func (l Latencies) Summarize(tailP float64) Summary {
	if len(l) == 0 {
		return Summary{}
	}
	s := sortedCopy(l)
	return Summary{
		N:         len(s),
		P50:       Percentile(s, 50),
		Tail:      Percentile(s, tailP),
		Supported: SupportedTail(len(s)) >= tailP,
	}
}
