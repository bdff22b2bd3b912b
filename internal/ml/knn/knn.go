// Package knn implements a k-nearest-neighbor classifier: an exact scan
// over the standardized training rows with inverse-distance-weighted
// voting. At this feature width (33) and training size (a few hundred
// rows) a KD-tree visited 72 % of the stored points per query, so the
// flat scan does the same arithmetic without the tree's bookkeeping.
//
// On hosts with AVX2 the scan runs in internal/ml/vec's kernel, eight
// rows per pass with one row per SIMD lane, over rows stored in blocks
// of four interleaved by feature; elsewhere it is a scalar loop over
// row-major rows, four rows per pass. Every distance is the same
// left-to-right sum on both paths, so the scores are bit-identical.
package knn

import (
	"errors"
	"math"
	"math/bits"
	"sync"

	"ssdfail/internal/dataset"
	"ssdfail/internal/ml"
	"ssdfail/internal/ml/vec"
)

// Config holds the k-NN hyperparameters.
type Config struct {
	K int // number of neighbors
}

// DefaultConfig returns the configuration used by the Table 6 harness.
func DefaultConfig() Config { return Config{K: 15} }

// Model is a fitted k-NN classifier.
type Model struct {
	cfg    Config
	scaler *dataset.Scaler
	// The standardized training rows, in one of two layouts: pts,
	// row-major with stride w, for the scalar scan; or blocks, four rows
	// interleaved by feature (vec.Interleave4), for the AVX2 kernel.
	// Fit fills exactly one; both are padded with rows at infinity.
	pts, blocks []float64
	labels      []int8
	w           int
	scratch     *sync.Pool // *scratch sized for the fitted rows, one per concurrent Score
}

// neighbor is one of the k best so far.
type neighbor struct {
	dist float64
	idx  int32 // training-row index
}

// scratch is the per-call working set of Score.
type scratch struct {
	q    []float64  // the standardized query
	best []neighbor // ascending by (dist, idx); capacity min(K, stored points)
	dist [chunkRows]float64
}

// New returns an unfitted model.
func New(cfg Config) *Model { return &Model{cfg: cfg} }

// NewFactory adapts New to the harness Factory signature.
func NewFactory(cfg Config) ml.Factory {
	return func() ml.Classifier { return New(cfg) }
}

// Name implements ml.Classifier.
func (m *Model) Name() string { return "k-NN" }

// Fit implements ml.Classifier. k-NN "training" standardizes the data
// and keeps the rows.
func (m *Model) Fit(data *dataset.Matrix) error {
	n := data.Len()
	if n == 0 {
		return errors.New("knn: empty training set")
	}
	m.scaler = dataset.FitScaler(data)
	w := data.W()
	// The scan takes rows four (scalar) or eight (kernel) at a time: pad
	// to a whole pass with rows at infinity, which are nearer to no query
	// than any bound.
	kernel := vec.AVX2
	pass := 4
	if kernel {
		pass = 8
	}
	pts := make([]float64, (n+pass-1)/pass*pass*w)
	copy(pts, data.X)
	for i := 0; i < n; i++ {
		m.scaler.Transform(pts[i*w : (i+1)*w])
	}
	for i := n * w; i < len(pts); i++ {
		pts[i] = math.Inf(1)
	}
	m.w = w
	if kernel {
		m.pts, m.blocks = nil, make([]float64, len(pts))
		vec.Interleave4(m.blocks, pts, w)
	} else {
		m.pts, m.blocks = pts, nil
	}
	m.labels = append([]int8(nil), data.Y...)
	k := m.cfg.K
	if k <= 0 {
		k = 15
	}
	if k > n {
		k = n
	}
	m.scratch = &sync.Pool{New: func() any {
		return &scratch{q: make([]float64, w), best: make([]neighbor, k)}
	}}
	return nil
}

// Score implements ml.Classifier: the inverse-distance-weighted fraction
// of positive labels among the K nearest neighbors. Neighbors are
// ranked by the total order (squared distance, training-row index) and
// the vote is summed in that order, so the score depends on neither
// scan order nor goroutine.
func (m *Model) Score(x []float64) float64 {
	if m.labels == nil {
		return 0.5
	}
	sc := m.scratch.Get().(*scratch)
	copy(sc.q, x)
	m.scaler.Transform(sc.q)
	var best []neighbor
	if m.blocks != nil {
		best = m.nearestBlocks(sc.q, sc.best, &sc.dist)
	} else {
		best = m.nearest(sc.q, sc.best)
	}
	var wPos, wAll float64
	for _, nb := range best {
		w := 1 / (1e-9 + nb.dist)
		wAll += w
		if m.labels[nb.idx] == 1 {
			wPos += w
		}
	}
	m.scratch.Put(sc)
	if wAll == 0 {
		return 0.5
	}
	return wPos / wAll
}

// cutDims is where the scan compares partial distances with the k-th
// best and drops the points already beyond it. On the train_grid folds
// (~280 stored rows, 33 features) 60 % of rows have reached the live
// k-th best by then; the scalar scan drops a block of four 37 % of the
// time, the kernel (bound as of its chunk's start) a pass of eight 23 %.
// Cuts of 6 and 12 time the same within noise.
const cutDims = 8

// topK holds the k best neighbors found so far, ascending by
// (dist, idx).
type topK struct {
	best  []neighbor
	found int
}

// add inserts a point nearer than the current bound and returns the new
// bound: the k-th best distance once k points are held, +Inf before.
// Rows arrive in index order, so a new point goes after its equals.
func (t *topK) add(d float64, i int) float64 {
	j := t.found
	if j < len(t.best) {
		t.found++
	} else {
		j--
	}
	for ; j > 0 && t.best[j-1].dist > d; j-- {
		t.best[j] = t.best[j-1]
	}
	t.best[j] = neighbor{dist: d, idx: int32(i)}
	if t.found < len(t.best) {
		return math.Inf(1)
	}
	return t.best[len(t.best)-1].dist
}

// nearest fills best with the len(best) stored points nearest to q,
// ascending by (squared distance, row index). Each distance is the plain
// left-to-right sum of squared differences; four rows are summed per
// pass so their additions overlap, and a block whose partial sums all
// reach the k-th best already is abandoned (squares only grow the sum,
// and a later row loses a tie to an earlier one). Each square is
// rounded before it is added (the float64 conversion forbids a fused
// multiply-add), as in the kernel nearestBlocks runs.
func (m *Model) nearest(q []float64, best []neighbor) []neighbor {
	w := m.w
	q = q[:w]
	cut := min(cutDims, w)
	t := topK{best: best}
	bound := math.Inf(1)
	for i := 0; i < len(m.pts)/w; i += 4 {
		p0, p1, p2, p3 := m.pts[i*w:][:w], m.pts[(i+1)*w:][:w], m.pts[(i+2)*w:][:w], m.pts[(i+3)*w:][:w]
		var s0, s1, s2, s3 float64
		for j := 0; j < cut; j++ {
			d0, d1, d2, d3 := q[j]-p0[j], q[j]-p1[j], q[j]-p2[j], q[j]-p3[j]
			s0, s1, s2, s3 = s0+float64(d0*d0), s1+float64(d1*d1), s2+float64(d2*d2), s3+float64(d3*d3)
		}
		if s0 >= bound && s1 >= bound && s2 >= bound && s3 >= bound {
			continue
		}
		for j := cut; j < w; j++ {
			d0, d1, d2, d3 := q[j]-p0[j], q[j]-p1[j], q[j]-p2[j], q[j]-p3[j]
			s0, s1, s2, s3 = s0+float64(d0*d0), s1+float64(d1*d1), s2+float64(d2*d2), s3+float64(d3*d3)
		}
		for j, d := range [4]float64{s0, s1, s2, s3} {
			if d < bound {
				bound = t.add(d, i+j)
			}
		}
	}
	return best[:t.found]
}

// chunkRows is how many rows nearestBlocks hands the kernel per call,
// the most its row mask holds: the kernel prunes with the k-th best as
// it stood at the start of the chunk, and the bound tightens between
// calls.
const chunkRows = 64

// nearestBlocks is nearest over the interleaved rows, distances from
// vec.SqDists a chunk at a time. A value the kernel wrote is below the
// bound exactly when the row's full distance is, and then equals it; the
// rows it masks as below its bound are visited in row order with the
// same d < bound test, so the same neighbors are picked.
func (m *Model) nearestBlocks(q []float64, best []neighbor, dist *[chunkRows]float64) []neighbor {
	w := m.w
	q = q[:w]
	cut := min(cutDims, w)
	t := topK{best: best}
	bound := math.Inf(1)
	rows := len(m.blocks) / w
	for lo := 0; lo < rows; lo += chunkRows {
		d := dist[:min(chunkRows, rows-lo)]
		for below := vec.SqDists(d, q, m.blocks[lo*w:(lo+len(d))*w], cut, bound); below != 0; below &= below - 1 {
			j := bits.TrailingZeros64(below)
			if d[j] < bound {
				bound = t.add(d[j], lo+j)
			}
		}
	}
	return best[:t.found]
}
