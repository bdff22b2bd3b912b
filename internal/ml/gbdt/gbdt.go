// Package gbdt implements gradient-boosted decision trees for binary
// classification with the logistic loss — an extension beyond the
// paper's six models. Each round fits a small regression tree to the
// negative gradient (residual) of the loss and leaf values are set by a
// single Newton step, as in standard GBM/XGBoost formulations.
package gbdt

import (
	"errors"
	"math"
	"sort"

	"ssdfail/internal/dataset"
	"ssdfail/internal/fleetsim"
	"ssdfail/internal/ml"
)

// Config holds the boosting hyperparameters.
type Config struct {
	Rounds    int     // number of boosting rounds (trees)
	MaxDepth  int     // per-tree depth
	MinLeaf   int     // minimum rows per leaf
	LearnRate float64 // shrinkage
	Subsample float64 // row subsampling per round (stochastic GB); 1 = all
	Seed      uint64
}

// DefaultConfig returns a configuration competitive with the paper's
// random forest on this task.
func DefaultConfig() Config {
	return Config{Rounds: 120, MaxDepth: 4, MinLeaf: 5, LearnRate: 0.1, Subsample: 0.8, Seed: 1}
}

// regression tree node over residuals.
type node struct {
	feature     int32 // -1 for leaves
	threshold   float64
	left, right int32
	value       float64 // leaf output (log-odds increment)
}

type regTree struct {
	nodes []node
}

func (t *regTree) predict(x []float64) float64 {
	ni := int32(0)
	for {
		nd := &t.nodes[ni]
		if nd.feature < 0 {
			return nd.value
		}
		if x[nd.feature] <= nd.threshold {
			ni = nd.left
		} else {
			ni = nd.right
		}
	}
}

// Model is a trained boosted ensemble.
type Model struct {
	cfg   Config
	base  float64 // initial log-odds
	trees []*regTree
	width int
}

// New returns an untrained model.
func New(cfg Config) *Model { return &Model{cfg: cfg} }

// Name implements ml.Classifier.
func (m *Model) Name() string { return "Gradient Boosting" }

// treeBuilder grows one regression tree on gradients/hessians.
type treeBuilder struct {
	m       *dataset.Matrix
	grad    []float64 // negative gradient per row
	hess    []float64
	minLeaf int
	maxDep  int
	tree    *regTree
	scratch []int32
}

const lambda = 1.0 // L2 regularization on leaf values

// leafValue is the Newton-step optimum sum(g)/(sum(h)+lambda).
func leafValue(g, h float64) float64 { return g / (h + lambda) }

// gainFor computes the split gain (simplified XGBoost objective).
func gainFor(gl, hl, gr, hr float64) float64 {
	return gl*gl/(hl+lambda) + gr*gr/(hr+lambda) - (gl+gr)*(gl+gr)/(hl+hr+lambda)
}

func (b *treeBuilder) grow(rows []int32, depth int) int32 {
	var gSum, hSum float64
	for _, r := range rows {
		gSum += b.grad[r]
		hSum += b.hess[r]
	}
	ni := int32(len(b.tree.nodes))
	b.tree.nodes = append(b.tree.nodes, node{feature: -1, value: leafValue(gSum, hSum)})
	if depth >= b.maxDep || len(rows) < 2*b.minLeaf {
		return ni
	}

	bestFeat := -1
	var bestThresh, bestGain float64
	width := b.m.W()
	idx := b.scratch[:len(rows)]
	for f := 0; f < width; f++ {
		copy(idx, rows)
		mm := b.m
		sort.Slice(idx, func(a, c int) bool {
			return mm.Row(int(idx[a]))[f] < mm.Row(int(idx[c]))[f]
		})
		var gl, hl float64
		for i := 0; i < len(idx)-1; i++ {
			gl += b.grad[idx[i]]
			hl += b.hess[idx[i]]
			v, next := mm.Row(int(idx[i]))[f], mm.Row(int(idx[i+1]))[f]
			if v == next {
				continue
			}
			if i+1 < b.minLeaf || len(idx)-i-1 < b.minLeaf {
				continue
			}
			gain := gainFor(gl, hl, gSum-gl, hSum-hl)
			if gain > bestGain+1e-12 {
				bestGain = gain
				bestFeat = f
				bestThresh = v + (next-v)/2
			}
		}
	}
	if bestFeat < 0 {
		return ni
	}
	lo, hi := 0, len(rows)
	for lo < hi {
		if b.m.Row(int(rows[lo]))[bestFeat] <= bestThresh {
			lo++
		} else {
			hi--
			rows[lo], rows[hi] = rows[hi], rows[lo]
		}
	}
	if lo < b.minLeaf || len(rows)-lo < b.minLeaf {
		return ni
	}
	left := b.grow(rows[:lo], depth+1)
	right := b.grow(rows[lo:], depth+1)
	b.tree.nodes[ni].feature = int32(bestFeat)
	b.tree.nodes[ni].threshold = bestThresh
	b.tree.nodes[ni].left = left
	b.tree.nodes[ni].right = right
	return ni
}

// Fit implements ml.Classifier.
func (m *Model) Fit(data *dataset.Matrix) error {
	n := data.Len()
	if n == 0 {
		return errors.New("gbdt: empty training set")
	}
	m.width = data.W()
	pos := float64(data.Positives())
	neg := float64(n) - pos
	if pos == 0 || neg == 0 {
		return errors.New("gbdt: training set needs both classes")
	}
	m.base = math.Log(pos / neg)
	m.trees = nil

	rounds := m.cfg.Rounds
	if rounds <= 0 {
		rounds = 100
	}
	depth := m.cfg.MaxDepth
	if depth <= 0 {
		depth = 4
	}
	minLeaf := m.cfg.MinLeaf
	if minLeaf < 1 {
		minLeaf = 1
	}
	lr := m.cfg.LearnRate
	if lr <= 0 {
		lr = 0.1
	}
	sub := m.cfg.Subsample
	if sub <= 0 || sub > 1 {
		sub = 1
	}
	rng := fleetsim.NewRNG(m.cfg.Seed ^ 0x9bd7)

	score := make([]float64, n)
	for i := range score {
		score[i] = m.base
	}
	grad := make([]float64, n)
	hess := make([]float64, n)
	rows := make([]int32, 0, n)
	for round := 0; round < rounds; round++ {
		rows = rows[:0]
		for i := 0; i < n; i++ {
			p := ml.Sigmoid(score[i])
			grad[i] = float64(data.Y[i]) - p // negative gradient
			hess[i] = p * (1 - p)
			if sub >= 1 || rng.Float64() < sub {
				rows = append(rows, int32(i))
			}
		}
		if len(rows) < 2*minLeaf {
			break
		}
		b := &treeBuilder{
			m: data, grad: grad, hess: hess,
			minLeaf: minLeaf, maxDep: depth,
			tree:    &regTree{},
			scratch: make([]int32, len(rows)),
		}
		b.grow(rows, 0)
		m.trees = append(m.trees, b.tree)
		for i := 0; i < n; i++ {
			score[i] += lr * b.tree.predict(data.Row(i))
		}
	}
	return nil
}

// Score implements ml.Classifier.
func (m *Model) Score(x []float64) float64 {
	if m.trees == nil {
		return 0.5
	}
	s := m.base
	lr := m.cfg.LearnRate
	if lr <= 0 {
		lr = 0.1
	}
	for _, t := range m.trees {
		s += lr * t.predict(x)
	}
	return ml.Sigmoid(s)
}

// Rounds returns the number of fitted trees.
func (m *Model) Rounds() int { return len(m.trees) }
