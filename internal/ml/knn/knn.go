// Package knn implements a k-nearest-neighbor classifier: an exact
// search over the standardized training rows with inverse-distance-
// weighted voting. At this feature width (33) and training size (a few
// hundred rows) a KD-tree visited 72 % of the stored points per query,
// so there is no tree: the search is a sorted-projection walk (Friedman,
// Baskett & Shustek, 1975).
//
// Fit sorts the rows by their projection onto the first principal
// direction of the standardized data (found by a fixed number of power
// iterations) and keeps each eight-row pass's projection range. Score
// projects the query, starts at the pass that holds its projection and
// walks outward, always to the side whose next pass is nearer in
// projection, up to two passes of that side a step. A projection gap is
// a lower bound on the distance, so once the nearer side's gap, shrunk by
// a floating-point margin, squared, exceeds the k-th best distance, no
// pass left on either side can hold a neighbor and the walk stops. On
// train_grid's folds it visits 6.7 of 10 passes per query at lookahead 1
// and 18.8 of 57 at lookahead 7 (BenchmarkScoreGridFold).
// The projection only orders the scan and bounds it: neighbors are
// ranked by (squared distance, training-row index) whatever order the
// rows arrive in, so the scores do not depend on the direction.
//
// On hosts with AVX2 a pass's distances come from internal/ml/vec's
// kernel, one row per SIMD lane, over rows stored in blocks of four
// interleaved by feature; elsewhere from a scalar loop over row-major
// rows, four rows at a time. Every distance is the same left-to-right sum
// on both paths, and both run the same walk, so the scores are
// bit-identical.
package knn

import (
	"cmp"
	"errors"
	"math"
	"math/bits"
	"slices"
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
	// The standardized training rows in ascending (projection, row index)
	// order, in one of two layouts: pts, row-major with stride w, for the
	// scalar loop; or blocks, four rows interleaved by feature
	// (vec.Interleave4), for the AVX2 kernel. Fit fills exactly one; both
	// are padded to whole passes with rows at infinity.
	pts, blocks []float64
	idx         []int32 // training-row index of each stored row, -1 for padding
	labels      []int8  // by training-row index
	w           int
	// The walk's bound: u is the unit scan direction, lo and hi each
	// pass's least and greatest projection onto it, reach the greatest
	// Σ|u_j·x_j| over the stored rows (+Inf when a projection is not
	// finite, which turns pruning off), and slack and tiny the relative
	// and absolute floating-point margins (see prunes).
	u, lo, hi   []float64
	reach       float64
	slack, tiny float64
	scratch     *sync.Pool // *scratch sized for the fitted rows, one per concurrent Score
}

// pass is how many stored rows the walk visits at a time: one kernel
// call of two interleaved blocks, or two groups of the scalar loop.
const pass = 8

// powerIters is the fixed number of power-iteration steps Fit takes
// toward the principal direction. The walk is exact along any direction;
// a better one only prunes more.
const powerIters = 8

// neighbor is one of the k best so far.
type neighbor struct {
	dist float64
	idx  int32 // training-row index
}

// scratch is the per-call working set of Score.
type scratch struct {
	q    []float64  // the standardized query
	best []neighbor // ascending by (dist, idx); capacity min(K, stored points)
	dist [stepPasses * pass]float64
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
// and keeps the rows, sorted along the data's first principal direction.
func (m *Model) Fit(data *dataset.Matrix) error { return m.fit(data, nil) }

// fit is Fit with a hook for tests: turn, when not nil, replaces the
// fitted direction (before it is scaled to unit length) with another.
func (m *Model) fit(data *dataset.Matrix, turn func(u []float64)) error {
	n := data.Len()
	if n == 0 {
		return errors.New("knn: empty training set")
	}
	m.scaler = dataset.FitScaler(data)
	w := data.W()
	// The scan takes rows a pass at a time: std holds the standardized
	// rows in training order, sized for whole passes so that it can take
	// the interleaved layout once the sorted copy is made.
	passes := (n + pass - 1) / pass
	std := make([]float64, passes*pass*w)
	copy(std, data.X)
	for i := 0; i < n; i++ {
		m.scaler.Transform(std[i*w : (i+1)*w])
	}

	u := principalDirection(std, n, w)
	if turn != nil {
		turn(u)
	}
	unit(u)
	proj := make([]float64, n)
	m.reach = 0
	for i := range proj {
		p, a := project(u, std[i*w:(i+1)*w])
		proj[i] = p
		m.reach = max(m.reach, a)
	}
	if !(m.reach < math.Inf(1)) {
		// A non-finite row or an overflowing sum (a projection can only be
		// non-finite when its Σ|u_j·x_j| is) leaves no bound to trust: keep
		// row order and never prune.
		clear(proj)
		m.reach = math.Inf(1)
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(proj[a], proj[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	// Lay the rows out in that order and pad to a whole pass with rows at
	// infinity, which are nearer to no query than any bound.
	pts := make([]float64, len(std))
	m.idx = make([]int32, passes*pass)
	for r, i := range order {
		copy(pts[r*w:(r+1)*w], std[int(i)*w:(int(i)+1)*w])
		m.idx[r] = i
	}
	for i := n * w; i < len(pts); i++ {
		pts[i] = math.Inf(1)
	}
	for r := n; r < len(m.idx); r++ {
		m.idx[r] = -1
	}
	m.lo, m.hi = make([]float64, passes), make([]float64, passes)
	for p := range m.lo {
		m.lo[p] = proj[order[p*pass]]
		m.hi[p] = proj[order[min((p+1)*pass, n)-1]]
	}
	m.u, m.w = u, w
	if vec.AVX2 {
		m.pts, m.blocks = nil, std
		vec.Interleave4(m.blocks, pts, w)
	} else {
		m.pts, m.blocks = pts, nil
	}
	// The margins are 4(w+16) units of 2^-53 and as many least
	// subnormals: at least four times what a w-term sum's rounding, u's
	// unit scaling and prunes' own few operations can contribute.
	m.slack = float64(4*(w+16)) * 0x1p-53
	m.tiny = float64(4*(w+16)) * 0x1p-1074
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

// principalDirection returns an approximation of the first principal
// direction of the n standardized rows in pts (row-major, width w):
// powerIters steps of v ← Xᵀ(X v) from the all-ones vector, each scaled
// to a largest entry of 1. When the rows have no spread (every row the
// zero vector) or a sum is not finite, there is no direction to find and
// it returns the first feature's axis instead: every direction bounds
// the walk correctly, and when every row is the same point no direction
// prunes anything.
func principalDirection(pts []float64, n, w int) []float64 {
	u := make([]float64, w)
	for j := range u {
		u[j] = 1
	}
	xu, next := make([]float64, n), make([]float64, w)
	for it := 0; it < powerIters; it++ {
		for i := range xu {
			var s float64
			for j, v := range pts[i*w : (i+1)*w] {
				s += float64(v * u[j])
			}
			xu[i] = s
		}
		clear(next)
		for i, a := range xu {
			for j, v := range pts[i*w : (i+1)*w] {
				next[j] += float64(a * v)
			}
		}
		var top float64
		for _, v := range next {
			top = max(top, math.Abs(v))
		}
		if !(top > 0) || math.IsInf(top, 0) {
			clear(u)
			u[0] = 1
			return u
		}
		for j, v := range next {
			u[j] = v / top
		}
	}
	return u
}

// unit scales u to unit length.
func unit(u []float64) {
	var s float64
	for _, v := range u {
		s += float64(v * v)
	}
	norm := math.Sqrt(s)
	for j := range u {
		u[j] /= norm
	}
}

// project returns the projection Σ u_j·x_j of x onto u, summed left to
// right with each product rounded, and Σ|u_j·x_j| over the same rounded
// products, which bounds the projection's rounding error.
func project(u, x []float64) (p, abs float64) {
	x = x[:len(u)]
	for j, v := range u {
		t := float64(v * x[j])
		p += t
		abs += math.Abs(t)
	}
	return p, abs
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
	s := m.vote(m.nearest(sc))
	m.scratch.Put(sc)
	return s
}

// vote is the inverse-distance-weighted fraction of positive labels
// among best, summed in best's order; 0.5 when no neighbor has weight.
func (m *Model) vote(best []neighbor) float64 {
	var wPos, wAll float64
	for _, nb := range best {
		w := 1 / (1e-9 + nb.dist)
		wAll += w
		if m.labels[nb.idx] == 1 {
			wPos += w
		}
	}
	if wAll == 0 {
		return 0.5
	}
	return wPos / wAll
}

// nearest fills sc.best with the len(sc.best) stored points nearest to
// sc.q, ascending by (squared distance, training-row index), and returns
// them. A point at +Inf or NaN distance is never one of them.
func (m *Model) nearest(sc *scratch) []neighbor {
	t := topK{best: sc.best, limit: math.Inf(1)}
	wk := m.walkFrom(sc.q)
	for p, n := wk.next(m, &t); n > 0; p, n = wk.next(m, &t) {
		t.offer(m.dists(p, n, sc.q, t.limit, &sc.dist), &sc.dist, m.idx[p*pass:(p+n)*pass])
	}
	return t.best[:t.found]
}

// topK holds the k best neighbors found so far, ascending by
// (dist, idx), and limit, the next float above the k-th best distance
// once k are held (+Inf before): a point can only displace the k-th best
// if its distance is below limit.
type topK struct {
	best  []neighbor
	found int
	limit float64
}

// offer adds the rows of one pass whose bit is set in below (their
// distances in dist, their training-row indices in idx) that rank before
// the k-th best, in lane order. A set bit means the row's distance was
// below limit when the pass started; the limit may have fallen since.
func (t *topK) offer(below uint64, dist *[stepPasses * pass]float64, idx []int32) {
	for ; below != 0; below &= below - 1 {
		j := bits.TrailingZeros64(below)
		if dist[j] < t.limit {
			t.add(dist[j], idx[j])
		}
	}
}

// add inserts a point whose distance is below t.limit in (dist, idx)
// order, unless k points are held and the k-th best ties it with a lower
// index, updates the limit and reports whether it inserted the point.
func (t *topK) add(d float64, i int32) bool {
	best, j := t.best, t.found
	if j < len(best) {
		t.found++
	} else {
		if last := best[j-1]; last.dist == d && last.idx < i {
			return false
		}
		j--
	}
	for ; j > 0 && best[j-1].dist > d; j-- {
		best[j] = best[j-1]
	}
	for ; j > 0 && best[j-1].dist == d && best[j-1].idx > i; j-- {
		best[j] = best[j-1]
	}
	best[j] = neighbor{dist: d, idx: i}
	if t.found == len(best) {
		// The next float above the k-th distance, which is finite and not
		// negative, so a tie at that distance still reaches add.
		t.limit = math.Float64frombits(math.Float64bits(best[len(best)-1].dist) + 1)
	}
	return true
}

// walk is the state of one query's walk outward over the passes:
// left and right are the next pass on each side (left < 0 and
// right == len(m.lo) when a side is done), pq the query's projection and
// margin the error its gaps may carry.
type walk struct {
	left, right int
	pq, margin  float64
}

// walkFrom projects q and starts the walk at the first pass whose range
// does not end below the projection.
func (m *Model) walkFrom(q []float64) walk {
	pq, abs := project(m.u, q)
	lo, hi := 0, len(m.hi)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.hi[mid] < pq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return walk{left: lo - 1, right: lo, pq: pq, margin: (abs+m.reach)*m.slack + m.tiny}
}

// stepPasses is how many passes of one side the walk visits per step, in
// one call of the distance loop: a single pass keeps too few sums in
// flight to cover the kernel's add latency, and the second pass is
// taken only when the bound does not rule it out, so the walk visits
// almost exactly the passes it would one at a time.
const stepPasses = 2

// next returns the passes to visit next, [p, p+n): the side whose next
// pass is nearer in projection, and on that side up to stepPasses passes
// the bound does not rule out. n is 0 once that nearer pass is ruled out:
// then so is every pass beyond it on either side, and the walk is over.
func (wk *walk) next(m *Model, t *topK) (p, n int) {
	switch {
	case wk.right < len(m.lo) && (wk.left < 0 || !(wk.pq-m.hi[wk.left] < m.lo[wk.right]-wk.pq)):
		p = wk.right
		for n < stepPasses && p+n < len(m.lo) && !m.prunes(m.lo[p+n]-wk.pq, wk.margin, t) {
			n++
		}
		wk.right += n
	case wk.left >= 0:
		for n < stepPasses && wk.left-n >= 0 && !m.prunes(wk.pq-m.hi[wk.left-n], wk.margin, t) {
			n++
		}
		wk.left -= n
		p = wk.left + 1
	}
	return p, n
}

// prunes reports whether every row whose projection lies at least gap
// from the query's is farther than the k-th best: its computed squared
// distance is then above the k-th best's, so it can neither rank before
// it nor tie it with a lower index. A row's true distance is at least its
// true projection gap |u·(q−x)| / ‖u‖ (Cauchy–Schwarz). The computed gap
// can exceed the true one by the two projections' rounding errors, which
// margin bounds from Σ|u_j·q_j| and reach; ‖u‖ differs from 1, and a
// computed squared distance falls short of the true one, by less than
// the relative slack, and by less than tiny where squares underflow.
// Shrinking the gap by margin and by 1−slack, and growing the k-th
// distance by slack and tiny, keeps the comparison on the safe side of
// every rounding. A NaN gap or margin prunes nothing.
func (m *Model) prunes(gap, margin float64, t *topK) bool {
	if t.found < len(t.best) {
		return false
	}
	g := (gap - margin) * (1 - m.slack)
	return g > 0 && g*g > t.best[t.found-1].dist*(1+m.slack)+m.tiny
}

// cutDims is where a pass's distance loop compares partial distances
// with the limit and drops the rows already beyond it. The walk visits
// near rows first, so on a train_grid fold (BenchmarkScoreGridFold at
// lookahead 1; at lookahead 7 in brackets) only 22 % (35 %) of the
// visited rows have reached the limit by then: the scalar loop drops a
// group of four 12 % (16 %) of the time, the kernel a pass of eight 5 %
// (10 %). A cut of 4 times the same within noise; no cut ran ~10 %
// slower at lookahead 7.
const cutDims = 8

// dists returns a mask of the rows of the n passes from p on whose
// squared distance from q is below limit, with those distances in dist
// (other entries hold no particular value), as vec.SqDists does. Each
// distance is the plain left-to-right sum of squared differences, and
// each square is rounded before it is added (the float64 conversion
// forbids a fused multiply-add), as in the kernel.
func (m *Model) dists(p, n int, q []float64, limit float64, dist *[stepPasses * pass]float64) uint64 {
	w := m.w
	q = q[:w]
	cut := min(cutDims, w)
	if m.blocks != nil {
		return vec.SqDists(dist[:n*pass], q, m.blocks[p*pass*w:(p+n)*pass*w], cut, limit)
	}
	var below uint64
	for g := 0; g < n*pass; g += 4 {
		r := p*pass + g
		p0, p1, p2, p3 := m.pts[r*w:][:w], m.pts[(r+1)*w:][:w], m.pts[(r+2)*w:][:w], m.pts[(r+3)*w:][:w]
		var s0, s1, s2, s3 float64
		for j := 0; j < cut; j++ {
			d0, d1, d2, d3 := q[j]-p0[j], q[j]-p1[j], q[j]-p2[j], q[j]-p3[j]
			s0, s1, s2, s3 = s0+float64(d0*d0), s1+float64(d1*d1), s2+float64(d2*d2), s3+float64(d3*d3)
		}
		if !(s0 < limit || s1 < limit || s2 < limit || s3 < limit) {
			continue
		}
		for j := cut; j < w; j++ {
			d0, d1, d2, d3 := q[j]-p0[j], q[j]-p1[j], q[j]-p2[j], q[j]-p3[j]
			s0, s1, s2, s3 = s0+float64(d0*d0), s1+float64(d1*d1), s2+float64(d2*d2), s3+float64(d3*d3)
		}
		dist[g], dist[g+1], dist[g+2], dist[g+3] = s0, s1, s2, s3
		for l, d := range [4]float64{s0, s1, s2, s3} {
			if d < limit {
				below |= 1 << (g + l)
			}
		}
	}
	return below
}
