package knn

import (
	"fmt"
	"math"
	"testing"

	"ssdfail/internal/dataset"
	"ssdfail/internal/ml/vec"
	"ssdfail/internal/rng"
)

// fixture is a training set and the queries it is scored on: rows of one
// width, row i labelled by bit i%64 of labels, scored with K = k.
type fixture struct {
	name    string
	k       int
	labels  uint64
	rows    [][]float64
	queries [][]float64
}

func (fx fixture) matrix() *dataset.Matrix {
	w := len(fx.rows[0])
	m := &dataset.Matrix{}
	if w != dataset.NumFeatures {
		m.Width = w
	}
	for i, r := range fx.rows {
		m.X = append(m.X, r...)
		m.Y = append(m.Y, int8(fx.labels>>(i%64)&1))
	}
	m.DriveIdx = make([]int32, m.Len())
	m.Day = make([]int32, m.Len())
	m.Age = make([]int32, m.Len())
	return m
}

// normRows returns n rows of width w with entries scale·N(0, 1).
func normRows(rng *rng.RNG, n, w int, scale float64) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, w)
		for j := range rows[i] {
			rows[i][j] = scale * rng.NormFloat64()
		}
	}
	return rows
}

func scaled(r []float64, c float64) []float64 {
	out := make([]float64, len(r))
	for j, v := range r {
		out[j] = c * v
	}
	return out
}

// lineRows returns n rows of width w scattered along one line: a random
// direction times N(0, 1), plus N(0, 0.1²) noise on every feature. Like
// the grid's features, the columns are strongly correlated, so one
// direction carries most of the spread.
func lineRows(rng *rng.RNG, n, w int) [][]float64 {
	dir := normRows(rng, 1, w, 1)[0]
	rows := normRows(rng, n, w, 0.1)
	for _, r := range rows {
		t := rng.NormFloat64()
		for j := range r {
			r[j] += t * dir[j]
		}
	}
	return rows
}

// shape names a family of training sets that stress the walk rather than
// the distances.
type shape uint8

const (
	// spread: N(0, 1) rows, in every direction.
	spread shape = iota
	// pairs, linePairs, axisPairs: adjacent pairs ±v, so every column
	// sums to exactly 0, the scaler maps a pair to exact negatives and
	// the origin is equally far from both, with projections p and −p.
	// Pairs alternate which sign comes first and carry different labels,
	// so an odd K splits a pair and only the lower index may take the
	// k-th place, whichever side the walk visits first. v is N(0, 1) for
	// pairs; for linePairs a multiple of one random direction, where a
	// row's projection gap equals its distance up to rounding and only
	// the bound's margins keep the partner; for axisPairs a multiple of
	// the first feature's axis, where the direction comes out exact and
	// gap and distance agree to the bit, so a bound that prunes on
	// equality loses the partner.
	pairs
	linePairs
	axisPairs
	// copies: a few points, each stored many times, so whole passes and
	// runs of passes share one projection.
	copies
	// magnitudes: columns of 1e150·N(0, 1), of subnormals (small
	// multiples of the least one; their spread is below the scaler's
	// floor, so they stay subnormal and their squares underflow) and of
	// N(0, 1), in turn. One query puts 1e150 into a subnormal column,
	// where the scaler divides by 1.
	magnitudes
	// line: rows along one line (lineRows), where the walk rules out
	// most passes.
	line
	// identical: every row the same point. With values whose mean is
	// exact the scaler maps every row to zero, there is no principal
	// direction and the walk orders by the first feature's axis; an odd
	// seed puts 0.1 in the first column, whose mean leaves the same
	// rounding residue in every row instead.
	identical
	// specials: N(0, 1) rows, and queries holding NaN, ±Inf or a value
	// whose square overflows.
	specials
	numShapes
)

var shapeNames = [numShapes]string{"spread", "pairs", "linePairs", "axisPairs", "copies", "magnitudes", "line", "identical", "specials"}

// spec is a fixture's generator: its shape, an RNG seed, the width, the
// number of rows, K, and a power of two most values are scaled by. It is
// also the fuzz input, a few bytes however large the fixture.
type spec struct {
	shape     shape
	seed      uint64
	w, n, k   int
	scaleExp2 int
}

func (s spec) String() string {
	return fmt.Sprintf("%s seed %d, %d×%d, K=%d, scale 2^%d", shapeNames[s.shape], s.seed, s.n, s.w, s.k, s.scaleExp2)
}

// fixture generates the training set and its queries: the origin, the
// first row, a fresh row, two points far beyond every row on either side,
// and the shape's own.
func (s spec) fixture() fixture {
	rng := rng.New(s.seed)
	scale := math.Ldexp(1, s.scaleExp2)
	w, n := s.w, s.n
	fx := fixture{name: s.String(), k: s.k, labels: rng.Uint64()}
	pm := func(vs [][]float64) [][]float64 {
		var out [][]float64
		for i, v := range vs {
			if i%2 == 0 {
				out = append(out, v, scaled(v, -1))
			} else {
				out = append(out, scaled(v, -1), v)
			}
		}
		return out
	}
	along := func(dir []float64) [][]float64 {
		vs := make([][]float64, max(1, n/2))
		for i := range vs {
			vs[i] = scaled(dir, scale*rng.NormFloat64())
		}
		return pm(vs)
	}
	var extra [][]float64
	switch s.shape {
	case spread, specials:
		fx.rows = normRows(rng, n, w, scale)
	case pairs:
		fx.rows = pm(normRows(rng, max(1, n/2), w, scale))
	case linePairs:
		fx.rows = along(normRows(rng, 1, w, 1)[0])
	case axisPairs:
		axis := make([]float64, w)
		axis[0] = 1
		fx.rows = along(axis)
	case copies:
		points := normRows(rng, max(1, n/16), w, scale)
		for i := 0; i < n; i++ {
			fx.rows = append(fx.rows, points[i%len(points)])
		}
	case magnitudes:
		fx.rows = normRows(rng, n, w, 1)
		for _, r := range fx.rows {
			for j := range r {
				switch j % 3 {
				case 0:
					r[j] *= 1e150
				case 1:
					r[j] = math.Float64frombits(uint64(rng.Intn(64)))
				default:
					r[j] *= scale
				}
			}
		}
		if w > 1 {
			q := append([]float64(nil), fx.rows[0]...)
			q[1] = 1e150
			extra = append(extra, q)
		}
	case line:
		for _, r := range lineRows(rng, n, w) {
			fx.rows = append(fx.rows, scaled(r, scale))
		}
	case identical:
		row := make([]float64, w)
		for j := range row {
			row[j] = scale * []float64{0.5, 2, -3}[j%3]
		}
		if s.seed%2 == 1 {
			row[0] = 0.1 * scale
		}
		for i := 0; i < n; i++ {
			fx.rows = append(fx.rows, row)
		}
	}
	switch s.shape {
	case pairs, linePairs, axisPairs:
		fx.labels = 0x5555555555555555
	case specials:
		odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, 1e200, -1e200}
		for _, q := range normRows(rng, 4, w, scale) {
			q[rng.Intn(w)] = odd[rng.Intn(len(odd))]
			extra = append(extra, q)
		}
	}
	first, last := fx.rows[0], fx.rows[len(fx.rows)-1]
	fx.queries = append([][]float64{make([]float64, w), first, normRows(rng, 1, w, scale)[0],
		scaled(first, 1e6), scaled(last, -1e6)}, extra...)
	return fx
}

// adversarialSpecs are the fixtures TestScoreMatchesReference and
// TestScanDirectionChangesNoScore run and FuzzScoreMatchesReference
// starts from: ties across the projection at every odd K; ties along 32
// lines of sixteen pairs each — four passes, two on each side of the
// origin, so with K = 1 the walk, having visited one side's two, must
// still visit the pass the partner starts; runs of equal projections;
// magnitudes at which the bound's margins matter; queries beyond every
// pass; rows with no spread; K above the row count; non-finite queries.
func adversarialSpecs() []spec {
	w := dataset.NumFeatures
	var specs []spec
	for k := 1; k < 24; k += 2 {
		specs = append(specs, spec{shape: pairs, seed: 1, w: w, n: 24, k: k})
	}
	for k := 1; k < 48; k += 2 {
		specs = append(specs, spec{shape: axisPairs, seed: 2, w: w, n: 48, k: k})
	}
	for seed := uint64(0); seed < 32; seed++ {
		specs = append(specs, spec{shape: linePairs, seed: seed, w: w, n: 32, k: 1})
	}
	for _, k := range []int{7, 15, 40} {
		specs = append(specs, spec{shape: copies, seed: 3, w: w, n: 60, k: k})
	}
	for _, k := range []int{1, 15} {
		specs = append(specs, spec{shape: magnitudes, seed: 4, w: w, n: 45, k: k},
			spec{shape: line, seed: 5, w: w, n: 256, k: k})
	}
	specs = append(specs,
		spec{shape: spread, seed: 6, w: w, n: 70, k: 15, scaleExp2: 3},
		spec{shape: identical, seed: 0, w: w, n: 32, k: 15},
		spec{shape: identical, seed: 1, w: w, n: 30, k: 15},
		spec{shape: specials, seed: 7, w: w, n: 40, k: 15})
	for _, n := range []int{5, 9} {
		for _, k := range []int{15, 100} {
			specs = append(specs, spec{shape: spread, seed: uint64(n), w: w, n: n, k: k})
		}
	}
	return specs
}

// TestScanDirectionChangesNoScore refits each adversarial fixture along
// other directions — the fitted one negated, each of several
// coordinate axes, seeded random vectors — and requires every score to
// stay bit-identical: the projection orders and bounds the scan, it does
// not choose the neighbors. It runs on both scan paths.
func TestScanDirectionChangesNoScore(t *testing.T) { bothPaths(t, testScanDirectionChangesNoScore) }

func testScanDirectionChangesNoScore(t *testing.T) {
	src := rng.New(7)
	for _, s := range adversarialSpecs() {
		fx := s.fixture()
		train := fx.matrix()
		base := New(Config{K: fx.k})
		if err := base.Fit(train); err != nil {
			t.Fatal(err)
		}
		fitted := base.Direction()
		turns := map[string]func(u []float64){
			"-u": func(u []float64) {
				for j := range u {
					u[j] = -fitted[j]
				}
			},
		}
		for _, axis := range []int{0, 1, 12, train.W() - 1} {
			turns[fmt.Sprintf("axis %d", axis)] = func(u []float64) {
				clear(u)
				u[axis] = 1
			}
		}
		for i := 0; i < 3; i++ {
			seed := src.Uint64()
			turns[fmt.Sprintf("random %#x", seed)] = func(u []float64) {
				r := rng.New(seed)
				for j := range u {
					u[j] = r.NormFloat64()
				}
			}
		}
		for name, turn := range turns {
			m := New(Config{K: fx.k})
			if err := m.FitAlong(train, turn); err != nil {
				t.Fatal(err)
			}
			for qi, q := range fx.queries {
				if got, want := m.Score(q), base.Score(q); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s, direction %s, query %d: Score = %v, along the fitted direction %v", fx.name, name, qi, got, want)
				}
			}
		}
	}
}

// TestNoSpreadFallsBackToFirstAxis pins the direction Fit uses when the
// standardized rows are all zero and power iteration has nothing to
// converge to: the first feature's axis.
func TestNoSpreadFallsBackToFirstAxis(t *testing.T) {
	m := New(DefaultConfig())
	if err := m.Fit(spec{shape: identical, w: dataset.NumFeatures, n: 32}.fixture().matrix()); err != nil {
		t.Fatal(err)
	}
	for j, v := range m.Direction() {
		if j == 0 && v != 1 || j > 0 && v != 0 {
			t.Fatalf("direction %v, want the first axis", m.Direction())
		}
	}
}

// TestWalkPrunesAndCounts checks the export hook ScanCounts against
// Score, and that the walk skips most passes on rows spread along a line:
// a walk that visited every pass would still score right, so only a
// count shows the bound has stopped working. (On two-blob data, noise in
// 30 of 33 features, the projection rules out almost nothing.)
func TestWalkPrunesAndCounts(t *testing.T) { bothPaths(t, testWalkPrunesAndCounts) }

func testWalkPrunesAndCounts(t *testing.T) {
	rng := rng.New(3)
	rows := lineRows(rng, 500, dataset.NumFeatures)
	train := fixture{k: 15, labels: 0x9e3779b97f4a7c15, rows: rows[:400]}.matrix()
	m := New(DefaultConfig())
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	total := (train.Len() + pass - 1) / pass
	var visited int
	for i, q := range rows[400:] {
		score, passes, inserts := m.ScanCounts(q)
		if s := m.Score(q); math.Float64bits(s) != math.Float64bits(score) {
			t.Fatalf("query %d: ScanCounts scores %v, Score %v", i, score, s)
		}
		if passes < 1 || passes > total || inserts < DefaultConfig().K || inserts > passes*pass {
			t.Fatalf("query %d: %d passes of %d, %d insertions", i, passes, total, inserts)
		}
		visited += passes
	}
	if frac := float64(visited) / float64(100*total); frac > 0.5 {
		t.Errorf("the walk visited %.0f%% of the passes; the projection bound prunes little", 100*frac)
	} else {
		t.Logf("the walk visited %.0f%% of the passes", 100*frac)
	}
}

// FuzzScoreMatchesReference holds Score to referenceScore on generated
// fixtures (spec), on both scan paths. The input is the generator's
// parameters, so it stays a few bytes however large its fixture, and the
// corpus starts from every adversarial spec.
func FuzzScoreMatchesReference(f *testing.F) {
	for _, s := range adversarialSpecs() {
		f.Add(uint8(s.shape), s.seed, uint8(s.w-1), uint8(s.n-1), int8(s.k), int16(s.scaleExp2))
	}
	f.Fuzz(func(t *testing.T, sh uint8, seed uint64, w, n uint8, k int8, scaleExp2 int16) {
		s := spec{shape: shape(sh) % numShapes, seed: seed, w: 1 + int(w)%64, n: 1 + int(n), k: int(k), scaleExp2: int(scaleExp2) % 1100}
		fx := s.fixture()
		if vec.AVX2 {
			matchesReference(t, fx)
			vec.AVX2 = false
			defer func() { vec.AVX2 = true }()
		}
		matchesReference(t, fx)
	})
}
