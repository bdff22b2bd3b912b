// Package svm implements a linear support vector machine trained with
// the Pegasos stochastic sub-gradient algorithm (Shalev-Shwartz et al.).
// Scores are mapped through a logistic link so they land in [0, 1]; the
// mapping is monotone in the margin, which is all ROC analysis needs.
package svm

import (
	"errors"
	"math"

	"ssdfail/internal/dataset"
	"ssdfail/internal/fleetsim"
	"ssdfail/internal/ml"
)

// Config holds the SVM hyperparameters.
type Config struct {
	Lambda float64 // regularization (Pegasos lambda)
	Epochs int
	Seed   uint64
}

// DefaultConfig returns the configuration used by the Table 6 harness.
func DefaultConfig() Config {
	return Config{Lambda: 1e-4, Epochs: 40, Seed: 1}
}

// Model is a trained linear SVM.
type Model struct {
	cfg    Config
	scaler *dataset.Scaler
	w      []float64
	b      float64
}

// New returns an untrained model.
func New(cfg Config) *Model { return &Model{cfg: cfg} }

// NewFactory adapts New to the harness Factory signature.
func NewFactory(cfg Config) ml.Factory {
	return func() ml.Classifier { return New(cfg) }
}

// Name implements ml.Classifier.
func (m *Model) Name() string { return "SVM" }

// Fit implements ml.Classifier.
func (m *Model) Fit(data *dataset.Matrix) error {
	n := data.Len()
	if n == 0 {
		return errors.New("svm: empty training set")
	}
	m.scaler = dataset.FitScaler(data)
	scaled := m.scaler.Apply(data)

	m.w = make([]float64, data.W())
	m.b = 0
	rng := fleetsim.NewRNG(m.cfg.Seed ^ 0x57a7e)
	t := 1
	lambda := m.cfg.Lambda
	if lambda <= 0 {
		lambda = 1e-4
	}
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		for step := 0; step < n; step++ {
			i := rng.Intn(n)
			row := scaled.Row(i)
			y := float64(scaled.Y[i])*2 - 1 // {0,1} -> {-1,+1}
			eta := 1 / (lambda * float64(t))
			margin := y * (ml.Dot(m.w, row) + m.b)
			scale := 1 - eta*lambda
			if scale < 0 {
				scale = 0
			}
			for f := range m.w {
				m.w[f] *= scale
			}
			if margin < 1 {
				for f, v := range row {
					m.w[f] += eta * y * v
				}
				m.b += eta * y
			}
			// Pegasos projection onto the ball of radius 1/sqrt(lambda).
			norm := math.Sqrt(ml.Dot(m.w, m.w))
			if limit := 1 / math.Sqrt(lambda); norm > limit {
				shrink := limit / norm
				for f := range m.w {
					m.w[f] *= shrink
				}
			}
			t++
		}
	}
	return nil
}

// Score implements ml.Classifier. The logistic link makes the margin a
// [0,1] score; it is monotone, so ROC/AUC are unaffected by the choice.
func (m *Model) Score(x []float64) float64 {
	if m.w == nil {
		return 0.5
	}
	return ml.Sigmoid(2 * (ml.ScaledDot(m.w, x, m.scaler) + m.b))
}
