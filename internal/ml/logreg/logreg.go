// Package logreg implements ridge-regularized logistic regression
// trained by mini-batch gradient descent with an adaptive step size.
package logreg

import (
	"errors"

	"ssdfail/internal/dataset"
	"ssdfail/internal/fleetsim"
	"ssdfail/internal/ml"
)

// Config holds the hyperparameters; the ridge coefficient L2 is the one
// the paper reports tuning by grid search.
type Config struct {
	L2        float64 // ridge regularization strength
	LearnRate float64 // initial step size
	Epochs    int
	BatchSize int
	Seed      uint64
}

// DefaultConfig returns the configuration used by the Table 6 harness.
func DefaultConfig() Config {
	return Config{L2: 1e-3, LearnRate: 0.1, Epochs: 60, BatchSize: 64, Seed: 1}
}

// Model is a trained logistic regression classifier.
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
func (m *Model) Name() string { return "Logistic Reg." }

// Fit implements ml.Classifier.
func (m *Model) Fit(data *dataset.Matrix) error {
	n := data.Len()
	if n == 0 {
		return errors.New("logreg: empty training set")
	}
	m.scaler = dataset.FitScaler(data)
	scaled := m.scaler.Apply(data)

	m.w = make([]float64, data.W())
	m.b = 0
	grad := make([]float64, data.W())
	rng := fleetsim.NewRNG(m.cfg.Seed ^ 0x10618e6)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	bs := m.cfg.BatchSize
	if bs <= 0 {
		bs = 64
	}
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		// Decaying step size keeps late epochs stable.
		lr := m.cfg.LearnRate / (1 + 0.1*float64(epoch))
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		for start := 0; start < n; start += bs {
			end := start + bs
			if end > n {
				end = n
			}
			for f := range grad {
				grad[f] = 0
			}
			var gradB float64
			for _, idx := range order[start:end] {
				row := scaled.Row(idx)
				p := ml.Sigmoid(ml.Dot(m.w, row) + m.b)
				diff := p - float64(scaled.Y[idx])
				for f, v := range row {
					grad[f] += diff * v
				}
				gradB += diff
			}
			inv := 1 / float64(end-start)
			for f := range m.w {
				m.w[f] -= lr * (grad[f]*inv + m.cfg.L2*m.w[f])
			}
			m.b -= lr * gradB * inv
		}
	}
	return nil
}

// Score implements ml.Classifier.
func (m *Model) Score(x []float64) float64 {
	if m.w == nil {
		return 0.5
	}
	return ml.Sigmoid(ml.ScaledDot(m.w, x, m.scaler) + m.b)
}

// Weights returns a copy of the trained coefficients (in standardized
// feature space), useful for interpretation.
func (m *Model) Weights() []float64 {
	out := make([]float64, len(m.w))
	copy(out, m.w)
	return out
}
