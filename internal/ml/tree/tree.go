// Package tree implements a CART-style binary decision tree for
// classification with Gini impurity, depth and leaf-size controls, and
// per-feature random candidate subsets (the building block the random
// forest reuses).
//
// Features must be finite: split search sorts each feature's values and
// counts labels only at value boundaries, which is independent of the
// order within ties for finite values but not with NaNs. dataset.Extract
// emits only finite features.
package tree

import (
	"errors"
	"slices"

	"ssdfail/internal/dataset"
	"ssdfail/internal/ml"
	"ssdfail/internal/rng"
)

// Config holds the tree hyperparameters. The maximum depth is the
// regularization knob the paper reports tuning for its tree models.
type Config struct {
	MaxDepth    int    // 0 = unlimited
	MinLeaf     int    // minimum samples in each child (default 1)
	MinSplit    int    // minimum samples to attempt a split (default 2)
	MaxFeatures int    // candidate features per split; 0 = all
	Seed        uint64 // used only when MaxFeatures narrows the candidates
}

// DefaultConfig returns the configuration used by the Table 6 harness.
func DefaultConfig() Config {
	return Config{MaxDepth: 12, MinLeaf: 3, MinSplit: 6}
}

type node struct {
	feature     int32 // -1 for leaves
	threshold   float64
	left, right int32
	prob        float64 // leaf probability (Laplace-smoothed)
}

// Tree is a trained decision tree.
type Tree struct {
	cfg        Config
	nodes      []node
	importance []float64
	rng        *rng.RNG
	width      int // feature-vector width seen at fit time
}

// New returns an untrained tree.
func New(cfg Config) *Tree { return &Tree{cfg: cfg} }

// NewFactory adapts New to the harness Factory signature.
func NewFactory(cfg Config) ml.Factory {
	return func() ml.Classifier { return New(cfg) }
}

// Name implements ml.Classifier.
func (t *Tree) Name() string { return "Decision Tree" }

// Fit implements ml.Classifier, training on all rows.
func (t *Tree) Fit(m *dataset.Matrix) error {
	rows := make([]int32, m.Len())
	for i := range rows {
		rows[i] = int32(i)
	}
	return t.FitRows(m, rows)
}

// FitRows trains on a subset of rows (with repetition allowed), which is
// how the random forest feeds bootstrap samples to its trees.
func (t *Tree) FitRows(m *dataset.Matrix, rows []int32) error {
	if len(rows) == 0 {
		return errors.New("tree: empty training set")
	}
	t.nodes = t.nodes[:0]
	t.width = m.W()
	t.importance = make([]float64, t.width)
	t.rng = rng.New(t.cfg.Seed ^ 0x7ee5)
	minLeaf := t.cfg.MinLeaf
	if minLeaf < 1 {
		minLeaf = 1
	}
	minSplit := t.cfg.MinSplit
	if minSplit < 2 {
		minSplit = 2
	}
	b := &builder{
		t: t, m: m, total: float64(len(rows)),
		minLeaf: minLeaf, minSplit: minSplit,
		posVals: make([]float64, 0, len(rows)),
		negVals: make([]float64, 0, len(rows)),
		feats:   make([]int, t.width),
	}
	b.grow(rows, 0)
	// Normalize importances to sum to 1 when any split occurred.
	var sum float64
	for _, v := range t.importance {
		sum += v
	}
	if sum > 0 {
		for f := range t.importance {
			t.importance[f] /= sum
		}
	}
	return nil
}

type builder struct {
	t                 *Tree
	m                 *dataset.Matrix
	total             float64
	minLeaf, minSplit int
	posVals, negVals  []float64 // split-search scratch, one per row each
	feats             []int     // candidate-feature scratch, one per feature
}

// gini returns the Gini impurity for pos positives out of n.
func gini(pos, n float64) float64 {
	if n == 0 {
		return 0
	}
	p := pos / n
	return 2 * p * (1 - p)
}

func countPos(m *dataset.Matrix, rows []int32) int {
	pos := 0
	for _, r := range rows {
		if m.Y[r] == 1 {
			pos++
		}
	}
	return pos
}

// grow recursively builds the subtree over rows and returns its index.
func (b *builder) grow(rows []int32, depth int) int32 {
	t := b.t
	pos := countPos(b.m, rows)
	n := len(rows)
	ni := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{
		feature: -1,
		prob:    (float64(pos) + 1) / (float64(n) + 2),
	})
	if pos == 0 || pos == n || n < b.minSplit ||
		(t.cfg.MaxDepth > 0 && depth >= t.cfg.MaxDepth) {
		return ni
	}

	feat, thresh, gain := b.bestSplit(rows, float64(pos))
	if feat < 0 {
		return ni
	}
	// Partition rows in place around the threshold.
	lo, hi := 0, n
	for lo < hi {
		if b.m.Row(int(rows[lo]))[feat] <= thresh {
			lo++
		} else {
			hi--
			rows[lo], rows[hi] = rows[hi], rows[lo]
		}
	}
	if lo < b.minLeaf || n-lo < b.minLeaf {
		return ni
	}
	t.importance[feat] += (float64(n) / b.total) * gain
	left := b.grow(rows[:lo], depth+1)
	right := b.grow(rows[lo:], depth+1)
	t.nodes[ni].feature = int32(feat)
	t.nodes[ni].threshold = thresh
	t.nodes[ni].left = left
	t.nodes[ni].right = right
	return ni
}

// bestSplit scans candidate features for the split with the largest Gini
// decrease. Returns feature -1 when no valid split exists. Per feature,
// the positives' and the negatives' values are sorted apart and
// merge-walked one distinct value at a time; a split is evaluated only
// between two distinct values, so the order within ties never matters.
func (b *builder) bestSplit(rows []int32, pos float64) (int, float64, float64) {
	n := float64(len(rows))
	parent := gini(pos, n)
	bestFeat := -1
	var bestThresh, bestGain float64

	feats := b.candidateFeatures()
	m := b.m
	for _, f := range feats {
		pv, nv := b.posVals[:0], b.negVals[:0]
		for _, r := range rows {
			if v := m.Row(int(r))[f]; m.Y[r] == 1 {
				pv = append(pv, v)
			} else {
				nv = append(nv, v)
			}
		}
		slices.Sort(pv)
		slices.Sort(nv)
		i, j := 0, 0
		for {
			// v is the smallest value not yet walked; take all its copies.
			v := smaller(pv, nv, i, j)
			for i < len(pv) && pv[i] == v {
				i++
			}
			for j < len(nv) && nv[j] == v {
				j++
			}
			if i == len(pv) && j == len(nv) {
				break
			}
			next := smaller(pv, nv, i, j)
			left := i + j
			if left < b.minLeaf || len(rows)-left < b.minLeaf {
				continue
			}
			leftPos, leftN := float64(i), float64(left)
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

// smaller returns the smaller of pv[i] and nv[j], of those that exist.
func smaller(pv, nv []float64, i, j int) float64 {
	if j == len(nv) || (i < len(pv) && pv[i] <= nv[j]) {
		return pv[i]
	}
	return nv[j]
}

// candidateFeatures returns the feature subset for this split, in the
// builder's reused buffer (valid until the next call). The buffer is
// refilled with 0..width-1 every call, so the partial shuffle draws
// exactly what it would from a fresh index slice.
func (b *builder) candidateFeatures() []int {
	width := b.t.width
	perm := b.feats
	for i := range perm {
		perm[i] = i
	}
	k := b.t.cfg.MaxFeatures
	if k <= 0 || k >= width {
		return perm
	}
	// Partial Fisher-Yates.
	for i := 0; i < k; i++ {
		j := i + b.t.rng.Intn(width-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:k]
}

// Score implements ml.Classifier.
func (t *Tree) Score(x []float64) float64 {
	if len(t.nodes) == 0 {
		return 0.5
	}
	ni := int32(0)
	for {
		nd := &t.nodes[ni]
		if nd.feature < 0 {
			return nd.prob
		}
		if x[nd.feature] <= nd.threshold {
			ni = nd.left
		} else {
			ni = nd.right
		}
	}
}

// Importance returns the normalized Gini importances (summing to 1 when
// the tree has at least one split).
func (t *Tree) Importance() []float64 {
	out := make([]float64, len(t.importance))
	copy(out, t.importance)
	return out
}

// NodeCount returns the number of nodes in the trained tree.
func (t *Tree) NodeCount() int { return len(t.nodes) }

// NodeView is a read-only copy of one tree node, exposed for flatteners
// that repack trees into contiguous arrays (forest.Flat). Node indices
// are in append order: a split node's children always have indices
// strictly greater than their parent's, with node 0 the root.
type NodeView struct {
	Feature     int32 // -1 for leaves
	Threshold   float64
	Left, Right int32 // meaningful only when Feature >= 0
	Prob        float64
}

// Node returns the i-th node.
func (t *Tree) Node(i int) NodeView {
	n := &t.nodes[i]
	return NodeView{Feature: n.feature, Threshold: n.threshold,
		Left: n.left, Right: n.right, Prob: n.prob}
}

// Width returns the feature-vector width the tree was trained (or
// deserialized) with, or 0 for an untrained tree. Score must be called
// with vectors at least this long.
func (t *Tree) Width() int { return t.width }
