// Package mltest provides shared fixtures for testing the classifiers:
// synthetic Gaussian-blob datasets over the real feature space and a
// reference AUC implementation.
package mltest

import (
	"sort"

	"ssdfail/internal/dataset"
	"ssdfail/internal/rng"
)

// TwoBlobs builds a binary dataset of 2n rows: positives centered at
// +sep/2 and negatives at -sep/2 along the first three features, with
// unit Gaussian noise on every feature. Larger sep means easier.
func TwoBlobs(n int, sep float64, seed uint64) *dataset.Matrix {
	rng := rng.New(seed)
	m := &dataset.Matrix{}
	for i := 0; i < 2*n; i++ {
		label := int8(i % 2)
		center := -sep / 2
		if label == 1 {
			center = sep / 2
		}
		base := len(m.X)
		m.X = append(m.X, make([]float64, dataset.NumFeatures)...)
		row := m.X[base : base+dataset.NumFeatures]
		for f := range row {
			row[f] = rng.NormFloat64()
			if f < 3 {
				row[f] += center
			}
		}
		m.Y = append(m.Y, label)
		m.DriveIdx = append(m.DriveIdx, int32(i))
		m.Day = append(m.Day, int32(i))
		m.Age = append(m.Age, int32(i))
	}
	return m
}

// XOR builds a dataset that is not linearly separable: the label is the
// XOR of the signs of the first two features. Only the first six
// features carry noise (the rest are constant) so the test exercises
// nonlinearity rather than the curse of dimensionality — greedy trees
// and distance-based methods legitimately fail XOR when it is buried in
// thirty noise dimensions. Nonlinear models should beat 0.5 AUC
// comfortably; linear ones cannot.
func XOR(n int, seed uint64) *dataset.Matrix {
	rng := rng.New(seed)
	m := &dataset.Matrix{}
	for i := 0; i < n; i++ {
		base := len(m.X)
		m.X = append(m.X, make([]float64, dataset.NumFeatures)...)
		row := m.X[base : base+dataset.NumFeatures]
		for f := 0; f < 6; f++ {
			row[f] = rng.NormFloat64()
		}
		label := int8(0)
		if (row[0] > 0) != (row[1] > 0) {
			label = 1
		}
		m.Y = append(m.Y, label)
		m.DriveIdx = append(m.DriveIdx, int32(i))
		m.Day = append(m.Day, int32(i))
		m.Age = append(m.Age, int32(i))
	}
	return m
}

// Band builds a nonlinear but axis-aligned dataset: the label is 1 when
// the first feature lies in (-0.7, 0.7). Not linearly separable, but a
// greedy tree captures it with two splits; a fair test of nonlinearity
// for CART-style models, which legitimately struggle on XOR.
func Band(n int, seed uint64) *dataset.Matrix {
	rng := rng.New(seed)
	m := &dataset.Matrix{}
	for i := 0; i < n; i++ {
		base := len(m.X)
		m.X = append(m.X, make([]float64, dataset.NumFeatures)...)
		row := m.X[base : base+dataset.NumFeatures]
		for f := 0; f < 6; f++ {
			row[f] = rng.NormFloat64()
		}
		label := int8(0)
		if row[0] > -0.7 && row[0] < 0.7 {
			label = 1
		}
		m.Y = append(m.Y, label)
		m.DriveIdx = append(m.DriveIdx, int32(i))
		m.Day = append(m.Day, int32(i))
		m.Age = append(m.Age, int32(i))
	}
	return m
}

// AUC computes the area under the ROC curve by the rank (Mann-Whitney)
// method with midrank tie handling. It is the reference implementation
// the eval package is tested against.
func AUC(scores []float64, y []int8) float64 {
	type pair struct {
		s float64
		y int8
	}
	ps := make([]pair, len(scores))
	for i := range scores {
		ps[i] = pair{scores[i], y[i]}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].s < ps[b].s })
	var rankSumPos float64
	var nPos, nNeg float64
	i := 0
	for i < len(ps) {
		j := i
		for j+1 < len(ps) && ps[j+1].s == ps[i].s {
			j++
		}
		midrank := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			if ps[k].y == 1 {
				rankSumPos += midrank
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
	return (rankSumPos - nPos*(nPos+1)/2) / (nPos * nNeg)
}
