// Package ml defines the common classifier interface shared by the six
// prediction models the paper compares (Table 6): logistic regression,
// k-nearest neighbors, support vector machine, neural network, decision
// tree, and random forest. All are implemented from scratch on the
// standard library; subpackages hold the individual models.
package ml

import (
	"math"

	"ssdfail/internal/dataset"
)

// Classifier is a binary classifier producing a continuous failure score.
type Classifier interface {
	// Name returns a short display name ("Random Forest").
	Name() string
	// Fit trains on the given matrix. Implementations must not retain
	// the matrix beyond what their model structure requires.
	Fit(m *dataset.Matrix) error
	// Score returns the estimated probability (or a monotone surrogate)
	// that the row is a positive, in [0, 1]. The input must have
	// dataset.NumFeatures entries and be in the original feature space;
	// models that need standardization handle it internally.
	Score(x []float64) float64
}

// Factory constructs a fresh, untrained classifier; the evaluation
// harness uses factories so each cross-validation fold trains a new
// model.
type Factory func() Classifier

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// ScaledDot returns Dot(w, x standardized by s) term for term, without
// materializing the standardized row: the linear models' Score.
func ScaledDot(w, x []float64, s *dataset.Scaler) float64 {
	var sum float64
	for f, v := range w {
		sum += v * ((x[f] - s.Mean[f]) / s.Std[f])
	}
	return sum
}

// Sigmoid is the logistic function with guarded tails.
func Sigmoid(z float64) float64 {
	switch {
	case z > 35:
		return 1
	case z < -35:
		return 0
	}
	return 1 / (1 + math.Exp(-z))
}

// ScoreBatch scores every row of a matrix.
func ScoreBatch(c Classifier, m *dataset.Matrix) []float64 {
	out := make([]float64, m.Len())
	for i := range out {
		out[i] = c.Score(m.Row(i))
	}
	return out
}
