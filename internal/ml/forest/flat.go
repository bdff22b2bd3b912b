package forest

import (
	"fmt"
	"math"
	"slices"

	"ssdfail/internal/ml/tree"
	"ssdfail/internal/ml/vec"
)

// The flat layout. Node n of the forest is thr[n] and link[n], with
// link = feature<<32 | left. A split sends x to left when
// x[feature] <= thr and to left+1 otherwise: each tree is numbered
// breadth-first, so a split's two children sit side by side. A leaf has
// thr NaN, feature 0 and left one below its own index (mod 2³²); since
// !(x <= NaN) holds for every x, NaN included, the same step keeps a
// walk on its leaf, so a walk may take more steps than its path is long.

// step is one branch-free move down from node ni.
func step(thr []float64, link []uint64, ni uint32, x []float64) uint32 {
	l := link[ni]
	var right uint32
	if !(x[l>>32] <= thr[ni]) {
		right = 1
	}
	return uint32(l) + right
}

// lanes is how many trees Flat.Score walks in lockstep: enough
// independent loads in flight to hide their latency, few enough to stay
// in registers.
const lanes = 8

// Flat is a forest in one node array, the only form its scoring walks:
// Forest.Score, Flat.Score and Flat.ScoreRows all run on it. Score walks
// the trees of each group of eight together, branch-free, for as many
// steps as the group's deepest leaf, then adds their eight leaf
// probabilities in tree index order; the sum over all trees is divided
// by the tree count once. That is the operation sequence of summing
// tree.Score over the trees, so every score is bit-identical to it.
//
// On amd64 hosts where vec.AVX2 is set, the walk and the sum run in
// assembly (sumLeaves); it needs nothing beyond SSE2, but follows the
// one switch every kernel follows, so tests reach the Go walk by
// clearing it.
//
// A Flat is immutable once built and safe for concurrent use.
type Flat struct {
	width int
	trees int
	thr   []float64
	link  []uint64
	prob  []float64 // read at leaves
	// roots holds the root of every tree, padded to whole groups of
	// lanes with the index of a leaf whose probability is never added.
	roots []uint32
	// groupDepth[g] is the depth of the deepest leaf of group g's trees.
	groupDepth []int32
}

// newFlat lays the trees out breadth-first in one node array. It
// re-validates the structural invariants the tree decoder guarantees —
// features inside the width, child indices strictly greater than their
// parent and inside the tree — and also that no node is reached twice,
// so the layout is a set of true trees and a walk can never leave its
// tree or the arrays, even for a corrupt forest; an error means the
// forest itself is malformed. A tree with no nodes becomes a single 0.5
// leaf, matching tree.Score on an empty tree.
func newFlat(trees []*tree.Tree) (*Flat, error) {
	fl := &Flat{trees: len(trees)}
	total := 0
	for _, t := range trees {
		total += max(t.NodeCount(), 1)
		fl.width = max(fl.width, t.Width())
	}
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("forest: flatten: %d nodes overflow the node index", total)
	}
	groups := (len(trees) + lanes - 1) / lanes
	fl.thr = make([]float64, 0, total)
	fl.link = make([]uint64, 0, total)
	fl.prob = make([]float64, 0, total)
	fl.roots = make([]uint32, 0, groups*lanes)
	fl.groupDepth = make([]int32, groups)
	var queue []int32 // tree-local node indices in breadth-first order
	var level []int32 // depth of each queue entry
	var seen []bool
	for ti, t := range trees {
		base := int32(len(fl.thr))
		fl.roots = append(fl.roots, uint32(base))
		count := int32(t.NodeCount())
		if count == 0 {
			fl.appendLeaf(0.5)
			continue
		}
		queue = append(queue[:0], 0)
		level = append(level[:0], 0)
		seen = slices.Grow(seen[:0], int(count))[:count]
		clear(seen)
		seen[0] = true
		deepest := &fl.groupDepth[ti/lanes]
		for q := 0; q < len(queue); q++ {
			i := queue[q]
			nv := t.Node(int(i))
			if nv.Feature < 0 {
				fl.appendLeaf(nv.Prob)
				*deepest = max(*deepest, level[q])
				continue
			}
			if int(nv.Feature) >= fl.width {
				return nil, fmt.Errorf("forest: flatten: tree %d node %d feature %d outside width %d",
					ti, i, nv.Feature, fl.width)
			}
			if nv.Left <= i || nv.Right <= i || nv.Left >= count || nv.Right >= count {
				return nil, fmt.Errorf("forest: flatten: tree %d node %d has dangling or cyclic children", ti, i)
			}
			if seen[nv.Left] || seen[nv.Right] || nv.Left == nv.Right {
				return nil, fmt.Errorf("forest: flatten: tree %d node %d shares a child with another node", ti, i)
			}
			seen[nv.Left], seen[nv.Right] = true, true
			fl.thr = append(fl.thr, nv.Threshold)
			fl.link = append(fl.link, uint64(nv.Feature)<<32|uint64(base)+uint64(len(queue)))
			fl.prob = append(fl.prob, nv.Prob)
			queue = append(queue, nv.Left, nv.Right)
			level = append(level, level[q]+1, level[q]+1)
		}
	}
	// The last node laid out is a leaf: nothing comes after its children.
	for len(fl.roots)%lanes != 0 {
		fl.roots = append(fl.roots, uint32(len(fl.thr)-1))
	}
	return fl, nil
}

// appendLeaf lays out a leaf at the next index.
func (fl *Flat) appendLeaf(prob float64) {
	self := uint32(len(fl.thr))
	fl.thr = append(fl.thr, math.NaN())
	fl.link = append(fl.link, uint64(self-1))
	fl.prob = append(fl.prob, prob)
}

// Flatten returns the forest's flat layout, built when the forest was
// fitted or decoded; an untrained forest has an empty one that scores
// 0.5. The error is kept for callers of the former repacking step: a
// forest that was fitted or decoded has already passed its checks.
func (f *Forest) Flatten() (*Flat, error) {
	if f.flat == nil {
		return newFlat(f.trees)
	}
	return f.flat, nil
}

// Width returns the feature-vector width scoring requires; x (or the
// matrix stride) must be at least this long.
func (fl *Flat) Width() int { return fl.width }

// NodeCount returns the total node count across all trees.
func (fl *Flat) NodeCount() int { return len(fl.thr) }

// TreeCount returns the number of trees.
func (fl *Flat) TreeCount() int { return fl.trees }

// Score scores one feature vector, bit-identical to the mean of
// tree.Score over the trees in tree index order.
func (fl *Flat) Score(x []float64) float64 {
	if fl.trees == 0 {
		return 0.5
	}
	// The kernel reads x unchecked; a short x takes the Go walk, which
	// fails where the pointer walk would.
	if vec.AVX2 && len(x) > 0 && len(x) >= fl.width {
		return sumLeaves(&fl.thr[0], &fl.link[0], &fl.prob[0], &x[0], &fl.roots[0], &fl.groupDepth[0], fl.trees) /
			float64(fl.trees)
	}
	return fl.sumLeaves(x) / float64(fl.trees)
}

// sumLeaves walks the groups of trees for x and adds their leaf
// probabilities in tree index order, from +0: the sumLeaves kernel in
// Go.
func (fl *Flat) sumLeaves(x []float64) float64 {
	thr, link := fl.thr, fl.link
	var s float64
	for g, d := range fl.groupDepth {
		r := fl.roots[g*lanes : g*lanes+lanes : g*lanes+lanes]
		n0, n1, n2, n3, n4, n5, n6, n7 := r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7]
		for ; d > 0; d-- {
			n0 = step(thr, link, n0, x)
			n1 = step(thr, link, n1, x)
			n2 = step(thr, link, n2, x)
			n3 = step(thr, link, n3, x)
			n4 = step(thr, link, n4, x)
			n5 = step(thr, link, n5, x)
			n6 = step(thr, link, n6, x)
			n7 = step(thr, link, n7, x)
		}
		leaves := [lanes]uint32{n0, n1, n2, n3, n4, n5, n6, n7}
		for _, ni := range leaves[:min(lanes, fl.trees-g*lanes)] {
			s += fl.prob[ni]
		}
	}
	return s
}

// ScoreRows scores len(out) rows of the row-major matrix X with stride
// w (which must be >= Width), writing out[i] for row X[i*w : i*w+w].
// It allocates nothing and is bit-identical to calling Score per row.
func (fl *Flat) ScoreRows(X []float64, w int, out []float64) {
	for i := range out {
		out[i] = fl.Score(X[i*w : i*w+w])
	}
}
