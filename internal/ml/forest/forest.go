// Package forest implements a random forest: bagged CART trees with
// per-split random feature subsets, parallel tree growth, and averaged
// Gini feature importances. The paper finds this model the most accurate
// for swap prediction (Table 6) and uses its importances to explain
// which symptoms matter for infant versus mature failures (Figure 16).
//
// A fitted or decoded forest scores through one flat node layout (Flat):
// each tree numbered breadth-first in one array, leaves that a step
// cannot leave, and eight trees walked in lockstep without a branch —
// in assembly on amd64 hosts where vec.AVX2 is set, in Go elsewhere.
// The leaf probabilities are added in tree index order and divided once,
// so every score is bit-identical to averaging tree.Score.
package forest

import (
	"errors"
	"math"

	"ssdfail/internal/dataset"
	"ssdfail/internal/ml"
	"ssdfail/internal/ml/tree"
	"ssdfail/internal/parallel"
	"ssdfail/internal/rng"
)

// Config holds the forest hyperparameters.
type Config struct {
	Trees       int
	MaxDepth    int // per-tree depth cap (the paper's tuned knob)
	MinLeaf     int
	MaxFeatures int // candidate features per split; 0 = sqrt(NumFeatures)
	Seed        uint64
	Workers     int // parallel tree growth; <= 0 = all CPUs
}

// DefaultConfig returns the configuration used by the Table 6 harness.
func DefaultConfig() Config {
	return Config{Trees: 100, MaxDepth: 14, MinLeaf: 2}
}

// Forest is a trained random forest. The trees are kept for their
// importances and for serialization; scoring walks flat, the layout
// built from them when the forest is fitted or decoded.
type Forest struct {
	cfg   Config
	trees []*tree.Tree
	flat  *Flat
}

// New returns an untrained forest.
func New(cfg Config) *Forest { return &Forest{cfg: cfg} }

// NewFactory adapts New to the harness Factory signature.
func NewFactory(cfg Config) ml.Factory {
	return func() ml.Classifier { return New(cfg) }
}

// Name implements ml.Classifier.
func (f *Forest) Name() string { return "Random Forest" }

// Fit implements ml.Classifier. Trees grow in parallel; each consumes an
// RNG stream derived from (Seed, treeIndex) so results are identical at
// any worker count.
func (f *Forest) Fit(m *dataset.Matrix) error {
	n := m.Len()
	if n == 0 {
		return errors.New("forest: empty training set")
	}
	nTrees := f.cfg.Trees
	if nTrees <= 0 {
		nTrees = 100
	}
	maxFeat := f.cfg.MaxFeatures
	if maxFeat <= 0 {
		maxFeat = int(math.Sqrt(float64(m.W())))
		if maxFeat < 1 {
			maxFeat = 1
		}
	}
	root := rng.New(f.cfg.Seed ^ 0xf0ee57)
	f.trees = make([]*tree.Tree, nTrees)
	errs := make([]error, nTrees)
	parallel.For(f.cfg.Workers, nTrees, func(ti int) {
		rng := root.Derive(uint64(ti))
		rows := make([]int32, n)
		for i := range rows {
			rows[i] = int32(rng.Intn(n)) // bootstrap sample
		}
		tr := tree.New(tree.Config{
			MaxDepth:    f.cfg.MaxDepth,
			MinLeaf:     f.cfg.MinLeaf,
			MinSplit:    2 * f.cfg.MinLeaf,
			MaxFeatures: maxFeat,
			Seed:        rng.Uint64(),
		})
		errs[ti] = tr.FitRows(m, rows)
		f.trees[ti] = tr
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	fl, err := newFlat(f.trees)
	f.flat = fl
	return err
}

// Score implements ml.Classifier: the mean of the trees' leaf
// probabilities, summed in tree index order (Flat.Score).
func (f *Forest) Score(x []float64) float64 {
	if f.flat == nil {
		return 0.5
	}
	return f.flat.Score(x)
}

// Importances returns the forest's feature importances: the per-tree
// normalized Gini importances averaged over trees, summing to ~1. The
// length matches the feature width seen at fit time.
func (f *Forest) Importances() []float64 {
	if len(f.trees) == 0 {
		return make([]float64, dataset.NumFeatures)
	}
	out := make([]float64, len(f.trees[0].Importance()))
	for _, t := range f.trees {
		for i, v := range t.Importance() {
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= float64(len(f.trees))
	}
	return out
}

// TreeCount returns the number of trained trees.
func (f *Forest) TreeCount() int { return len(f.trees) }

// Width returns the feature-vector width the forest was trained (or
// deserialized) with, or 0 for an untrained forest. Score must be
// called with vectors at least this long.
func (f *Forest) Width() int {
	if len(f.trees) == 0 {
		return 0
	}
	return f.trees[0].Width()
}
