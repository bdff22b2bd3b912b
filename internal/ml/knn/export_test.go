package knn

import (
	"math"
	"math/bits"

	"ssdfail/internal/dataset"
)

// FitAlong is Fit with the scan direction chosen by turn, which receives
// the fitted direction and may overwrite it; Fit then scales it to unit
// length. Scores must not depend on the choice.
func (m *Model) FitAlong(data *dataset.Matrix, turn func(u []float64)) error {
	return m.fit(data, turn)
}

// Direction returns a copy of the fitted unit scan direction.
func (m *Model) Direction() []float64 { return append([]float64(nil), m.u...) }

// ScanCounts scores x as Score does and also reports how many passes the
// walk visited and how many points it inserted into the k best. It runs
// Score's walk with the counts kept here, so Score carries no counter.
func (m *Model) ScanCounts(x []float64) (score float64, passes, inserts int) {
	sc := m.scratch.Get().(*scratch)
	defer m.scratch.Put(sc)
	copy(sc.q, x)
	m.scaler.Transform(sc.q)
	t := topK{best: sc.best, limit: math.Inf(1)}
	wk := m.walkFrom(sc.q)
	for p, n := wk.next(m, &t); n > 0; p, n = wk.next(m, &t) {
		passes += n
		idx := m.idx[p*pass : (p+n)*pass]
		for below := m.dists(p, n, sc.q, t.limit, &sc.dist); below != 0; below &= below - 1 {
			j := bits.TrailingZeros64(below)
			if sc.dist[j] < t.limit && t.add(sc.dist[j], idx[j]) {
				inserts++
			}
		}
	}
	return m.vote(t.best[:t.found]), passes, inserts
}
