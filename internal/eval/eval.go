// Package eval implements the metrics of the paper's evaluation
// methodology (§5.1): ROC curves and AUC (robust to the ~1:10,000 class
// imbalance of the trace), confusion sweeps, TPR by drive age,
// calibration, and the mean ± std fold summary. It scores slices of
// numbers and imports nothing from the module; cross-validation itself
// lives in internal/expgrid.
package eval

import (
	"math"
	"slices"
	"sort"
)

// AUC returns the area under the ROC curve: the Mann-Whitney U statistic
// — positive/negative pairs the scores order correctly, plus half the
// tied pairs — over the number of pairs. It returns 0.5 when either
// class is absent.
//
// It sorts the smaller class once and places each score of the larger
// class in it by binary search, counting pairs as integers. U is a
// whole number of half-pairs, exact in float64, so the result equals
// the midrank rank-sum method (aucRanks) bit for bit. Scores holding a
// NaN, which has no place in a sorted order, are left to aucRanks.
func AUC(scores []float64, y []int8) float64 {
	var nPos int
	for i, s := range scores {
		if s != s {
			return aucRanks(scores, y)
		}
		if y[i] == 1 {
			nPos++
		}
	}
	nNeg := len(scores) - nPos
	if nPos == 0 || nNeg == 0 {
		return 0.5
	}
	smallPos := nPos <= nNeg
	small := make([]float64, 0, min(nPos, nNeg))
	for i, s := range scores {
		if (y[i] == 1) == smallPos {
			small = append(small, s)
		}
	}
	slices.Sort(small)
	// Per score of the larger class: lo small-class scores below it,
	// hi-lo equal to it, len(small)-hi above it.
	var wins, ties int
	for i, s := range scores {
		if (y[i] == 1) == smallPos {
			continue
		}
		hi := countNotAbove(small, s)
		lo := hi
		if hi > 0 && small[hi-1] == s {
			lo, _ = slices.BinarySearch(small[:hi], s)
		}
		if smallPos {
			wins += len(small) - hi // positives above this negative
		} else {
			wins += lo // negatives below this positive
		}
		ties += hi - lo
	}
	return (float64(wins) + float64(ties)/2) / (float64(nPos) * float64(nNeg))
}

// countNotAbove returns how many elements of the ascending slice a are
// at most x.
func countNotAbove(a []float64, x float64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// aucRanks is AUC by the rank-sum (Mann-Whitney U) method with midrank
// handling of tied scores: one sort of every score.
func aucRanks(scores []float64, y []int8) float64 {
	type pair struct {
		score float64
		pos   bool
	}
	ps := make([]pair, len(scores))
	for i, s := range scores {
		ps[i] = pair{s, y[i] == 1}
	}
	// Only tie groups and their class counts enter the statistic, so the
	// order inside a group is free and the sort need not be stable.
	slices.SortFunc(ps, func(a, b pair) int {
		switch {
		case a.score < b.score:
			return -1
		case a.score > b.score:
			return 1
		}
		return 0
	})
	n := len(ps)
	var rankSum, nPos, nNeg float64
	for i := 0; i < n; {
		j := i
		for j+1 < n && ps[j+1].score == ps[i].score {
			j++
		}
		mid := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			if ps[k].pos {
				rankSum += mid
				nPos++
			} else {
				nNeg++
			}
		}
		i = j + 1
	}
	if nPos == 0 || nNeg == 0 {
		return 0.5
	}
	return (rankSum - nPos*(nPos+1)/2) / (nPos * nNeg)
}

// ROC is a receiver operating characteristic curve: parallel slices of
// false positive rate, true positive rate, and the score threshold at
// each point, ordered from the strictest threshold to the loosest.
type ROC struct {
	FPR, TPR, Threshold []float64
}

// ComputeROC builds the full ROC curve from scores and labels.
func ComputeROC(scores []float64, y []int8) *ROC {
	n := len(scores)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	var nPos, nNeg float64
	for _, v := range y {
		if v == 1 {
			nPos++
		} else {
			nNeg++
		}
	}
	roc := &ROC{FPR: []float64{0}, TPR: []float64{0}, Threshold: []float64{math.Inf(1)}}
	var tp, fp float64
	for i := 0; i < n; {
		j := i
		for j+1 < n && scores[idx[j+1]] == scores[idx[i]] {
			j++
		}
		for k := i; k <= j; k++ {
			if y[idx[k]] == 1 {
				tp++
			} else {
				fp++
			}
		}
		var fpr, tpr float64
		if nNeg > 0 {
			fpr = fp / nNeg
		}
		if nPos > 0 {
			tpr = tp / nPos
		}
		roc.FPR = append(roc.FPR, fpr)
		roc.TPR = append(roc.TPR, tpr)
		roc.Threshold = append(roc.Threshold, scores[idx[i]])
		i = j + 1
	}
	return roc
}

// AUC integrates the curve by the trapezoid rule; it matches the rank
// AUC of the same scores.
func (r *ROC) AUC() float64 {
	var area float64
	for i := 1; i < len(r.FPR); i++ {
		area += (r.FPR[i] - r.FPR[i-1]) * (r.TPR[i] + r.TPR[i-1]) / 2
	}
	return area
}

// TPRAtFPR interpolates the curve's TPR at the given false positive rate.
func (r *ROC) TPRAtFPR(fpr float64) float64 {
	for i := 1; i < len(r.FPR); i++ {
		if r.FPR[i] >= fpr {
			if r.FPR[i] == r.FPR[i-1] {
				return r.TPR[i]
			}
			frac := (fpr - r.FPR[i-1]) / (r.FPR[i] - r.FPR[i-1])
			return r.TPR[i-1] + frac*(r.TPR[i]-r.TPR[i-1])
		}
	}
	return 1
}

// ConfusionAt returns (TPR, FPR) for binary predictions at the given
// score threshold: predicted positive when score >= threshold.
func ConfusionAt(scores []float64, y []int8, threshold float64) (tpr, fpr float64) {
	c := ConfusionSweep(scores, y, []float64{threshold})[0]
	return c.TPR, c.FPR
}

// Confusion is the binary confusion summary at one score threshold.
type Confusion struct {
	Threshold float64
	TPR, FPR  float64
}

// ConfusionSweep evaluates the confusion at every threshold in one
// sorted pass: the class totals are counted once and the score array is
// walked once, instead of the O(len(thresholds) * n) rescan that calling
// ConfusionAt in a loop used to cost. Results are returned in the
// caller's threshold order.
func ConfusionSweep(scores []float64, y []int8, thresholds []float64) []Confusion {
	out := make([]Confusion, len(thresholds))
	if len(thresholds) == 0 {
		return out
	}
	var nPos, nNeg float64
	for _, v := range y {
		if v == 1 {
			nPos++
		} else {
			nNeg++
		}
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	// Visit thresholds from strictest (highest) to loosest so the score
	// walk never rewinds.
	order := make([]int, len(thresholds))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return thresholds[order[a]] > thresholds[order[b]] })
	var tp, fp float64
	j := 0
	for _, ti := range order {
		thr := thresholds[ti]
		for j < len(idx) && scores[idx[j]] >= thr {
			if y[idx[j]] == 1 {
				tp++
			} else {
				fp++
			}
			j++
		}
		c := Confusion{Threshold: thr}
		if nPos > 0 {
			c.TPR = tp / nPos
		}
		if nNeg > 0 {
			c.FPR = fp / nNeg
		}
		out[ti] = c
	}
	return out
}

// Result summarizes one cross-validated evaluation.
type Result struct {
	AUCs []float64 // one per fold
	Mean float64
	Std  float64 // standard deviation across folds, as reported in Table 6
}

// Summarize folds per-fold AUCs into a Result (mean ± sample std), the
// aggregation used by every CV table.
func Summarize(aucs []float64) Result {
	r := Result{AUCs: aucs}
	if len(aucs) == 0 {
		return r
	}
	var s float64
	for _, a := range aucs {
		s += a
	}
	r.Mean = s / float64(len(aucs))
	var v float64
	for _, a := range aucs {
		d := a - r.Mean
		v += d * d
	}
	if len(aucs) > 1 {
		r.Std = math.Sqrt(v / float64(len(aucs)-1))
	}
	return r
}

// TPRByAgeMonth computes the cross-validated true positive rate as a
// function of drive age in months at a fixed score threshold (Figure 14).
// scores, y, ages must be parallel slices; months with no positives are
// NaN.
func TPRByAgeMonth(scores []float64, y []int8, ages []int32, threshold float64, maxMonths int) []float64 {
	return TPRByAgeMonths(scores, y, ages, []float64{threshold}, maxMonths)[0]
}

// TPRByAgeMonths computes one TPR-by-age curve per threshold in a single
// pass over the scores: the per-month positive totals are counted once
// for all thresholds, instead of once per threshold as the old
// per-threshold loop did (Figure 14 sweeps three).
func TPRByAgeMonths(scores []float64, y []int8, ages []int32, thresholds []float64, maxMonths int) [][]float64 {
	tp := make([][]float64, len(thresholds))
	for ti := range tp {
		tp[ti] = make([]float64, maxMonths)
	}
	pos := make([]float64, maxMonths)
	for i, s := range scores {
		if y[i] != 1 {
			continue
		}
		m := int(ages[i] / 30)
		if m >= maxMonths {
			m = maxMonths - 1
		}
		pos[m]++
		for ti, thr := range thresholds {
			if s >= thr {
				tp[ti][m]++
			}
		}
	}
	out := make([][]float64, len(thresholds))
	for ti := range out {
		out[ti] = make([]float64, maxMonths)
		for m := range out[ti] {
			if pos[m] > 0 {
				out[ti][m] = tp[ti][m] / pos[m]
			} else {
				out[ti][m] = math.NaN()
			}
		}
	}
	return out
}
