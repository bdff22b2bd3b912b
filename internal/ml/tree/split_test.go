package tree

import (
	"math"
	"slices"
	"testing"

	"ssdfail/internal/dataset"
	"ssdfail/internal/rng"
)

// valLabel is one row's value of the feature under search and its label.
type valLabel struct {
	v   float64
	pos bool
}

// referenceBestSplit is the split search as it was before bestSplit
// sorted plain floats: one sort of (value, label) pairs per feature and
// a scan that evaluates a split wherever the value changes.
func referenceBestSplit(b *builder, feats []int, rows []int32, pos float64) (int, float64, float64) {
	n := float64(len(rows))
	parent := gini(pos, n)
	bestFeat := -1
	var bestThresh, bestGain float64
	pairs := make([]valLabel, len(rows))
	m := b.m
	for _, f := range feats {
		for i, r := range rows {
			pairs[i] = valLabel{m.Row(int(r))[f], m.Y[r] == 1}
		}
		slices.SortFunc(pairs, func(a, b valLabel) int {
			switch {
			case a.v < b.v:
				return -1
			case a.v > b.v:
				return 1
			}
			return 0
		})
		var leftPos, leftN float64
		for i := 0; i < len(pairs)-1; i++ {
			if pairs[i].pos {
				leftPos++
			}
			leftN++
			v, next := pairs[i].v, pairs[i+1].v
			if v == next {
				continue
			}
			if int(leftN) < b.minLeaf || len(pairs)-int(leftN) < b.minLeaf {
				continue
			}
			rightPos := pos - leftPos
			rightN := n - leftN
			gain := parent - (leftN*gini(leftPos, leftN)+rightN*gini(rightPos, rightN))/n
			if gain > bestGain+1e-15 {
				bestGain = gain
				bestFeat = f
				bestThresh = v + (next-v)/2
			}
		}
	}
	if bestGain <= 1e-12 {
		return -1, 0, 0
	}
	return bestFeat, bestThresh, bestGain
}

// TestBestSplitMatchesPairSort holds the float-sort split search to the
// pair-sort reference bit for bit, on columns drawn from a few values
// (so most rows tie), with signed zeros among them, over bootstrap
// samples that repeat rows, at several leaf minimums.
func TestBestSplitMatchesPairSort(t *testing.T) {
	rng := rng.New(11)
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(80)
		levels := 1 + rng.Intn(6)
		m := &dataset.Matrix{}
		for i := 0; i < n; i++ {
			row := make([]float64, dataset.NumFeatures)
			for f := range row {
				switch v := rng.Intn(levels); {
				case f%5 == 4:
					row[f] = rng.NormFloat64() // a column without ties
				case v == 0 && rng.Intn(2) == 0:
					row[f] = math.Copysign(0, -1)
				default:
					row[f] = float64(v) * 0.25
				}
			}
			m.X = append(m.X, row...)
			m.Y = append(m.Y, int8(rng.Intn(2)))
		}
		rows := make([]int32, n)
		for i := range rows {
			rows[i] = int32(rng.Intn(n)) // bootstrap sample
		}
		pos := 0
		for _, r := range rows {
			pos += int(m.Y[r])
		}
		b := &builder{
			t:       &Tree{width: m.W()},
			m:       m,
			minLeaf: 1 + rng.Intn(4),
			posVals: make([]float64, 0, n),
			negVals: make([]float64, 0, n),
			feats:   make([]int, m.W()),
		}
		feats := slices.Clone(b.candidateFeatures())
		wf, wt, wg := referenceBestSplit(b, feats, rows, float64(pos))
		gf, gt, gg := b.bestSplit(rows, float64(pos))
		if gf != wf || math.Float64bits(gt) != math.Float64bits(wt) || math.Float64bits(gg) != math.Float64bits(wg) {
			t.Fatalf("trial %d: bestSplit = (%d, %v, %v), pair sort = (%d, %v, %v)", trial, gf, gt, gg, wf, wt, wg)
		}
	}
}
