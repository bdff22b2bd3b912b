package forest

import (
	"fmt"
	"math"
	"testing"

	"ssdfail/internal/dataset"
	"ssdfail/internal/ml/mltest"
	"ssdfail/internal/ml/tree"
	"ssdfail/internal/ml/vec"
	"ssdfail/internal/rng"
)

// bothPaths runs f with the walk kernel, where the host runs kernels,
// and then on the Go walk, by clearing vec.AVX2 around the second run.
func bothPaths(t *testing.T, f func(t *testing.T)) {
	if vec.AVX2 {
		t.Run("kernel", f)
		vec.AVX2 = false
		defer func() { vec.AVX2 = true }()
	}
	t.Run("go", f)
}

// referenceScore is the forest's score by its definition: tree.Score
// summed over the trees in tree index order, divided by the tree count.
func referenceScore(trees []*tree.Tree, x []float64) float64 {
	if len(trees) == 0 {
		return 0.5
	}
	var s float64
	for _, t := range trees {
		s += t.Score(x)
	}
	return s / float64(len(trees))
}

func trainedForest(t *testing.T) (*Forest, *dataset.Matrix) {
	t.Helper()
	train := mltest.TwoBlobs(300, 3, 1)
	f := New(Config{Trees: 24, MaxDepth: 10, MinLeaf: 2, Seed: 9})
	if err := f.Fit(train); err != nil {
		t.Fatal(err)
	}
	return f, mltest.TwoBlobs(130, 3, 2)
}

// TestFlattenScoreGolden is the walk-vs-definition golden: every row
// must score through Forest.Score, Flat.Score and Flat.ScoreRows
// bit-identically to the sum of tree.Score — not merely close, since
// the Table 6 golden and the serving watchlists are pinned to it.
func TestFlattenScoreGolden(t *testing.T) { bothPaths(t, testFlattenScoreGolden) }

func testFlattenScoreGolden(t *testing.T) {
	f, test := trainedForest(t)
	fl, err := f.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	if fl.TreeCount() != f.TreeCount() {
		t.Fatalf("TreeCount = %d, want %d", fl.TreeCount(), f.TreeCount())
	}
	if fl.NodeCount() == 0 {
		t.Fatal("flattened forest has no nodes")
	}
	out := make([]float64, test.Len())
	fl.ScoreRows(test.X, test.W(), out)
	for i := 0; i < test.Len(); i++ {
		want := referenceScore(f.trees, test.Row(i))
		for name, got := range map[string]float64{
			"Forest.Score":   f.Score(test.Row(i)),
			"Flat.Score":     fl.Score(test.Row(i)),
			"Flat.ScoreRows": out[i],
		} {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("row %d: %s = %v (%#x), sum of tree.Score = %v (%#x)",
					i, name, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// walkForests are the forests the walk oracle scores: trees grown to
// every depth from 0 to 14, forests of single-leaf trees, an empty one,
// tree counts that do and do not fill whole groups of eight, and a
// group whose fourth tree is far deeper than the other seven.
func walkForests(t *testing.T) map[string]*Forest {
	t.Helper()
	train := mltest.TwoBlobs(300, 0.8, 21)
	grow := func(depth, minLeaf int, seed uint64) *tree.Tree {
		tr := tree.New(tree.Config{MaxDepth: depth, MinLeaf: minLeaf, MinSplit: 2 * minLeaf, MaxFeatures: 6, Seed: seed})
		rng := rng.New(seed)
		rows := make([]int32, train.Len())
		for i := range rows {
			rows[i] = int32(rng.Intn(train.Len()))
		}
		if err := tr.FitRows(train, rows); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	assemble := func(trees []*tree.Tree) *Forest {
		fl, err := newFlat(trees)
		if err != nil {
			t.Fatal(err)
		}
		return &Forest{trees: trees, flat: fl}
	}
	out := map[string]*Forest{"empty": assemble(nil)}
	var mixed []*tree.Tree
	for d := 0; d <= 14; d++ {
		var trees []*tree.Tree
		for k := range 3 {
			trees = append(trees, grow(max(d, 1), 1, uint64(100*d+k)))
		}
		if d == 0 {
			// MaxDepth 0 means unlimited; a leaf minimum above the row
			// count leaves every tree a single leaf instead.
			trees = []*tree.Tree{grow(0, 1000, 1), grow(0, 1000, 2)}
		}
		out[fmt.Sprintf("depth %d", d)] = assemble(trees)
		mixed = append(mixed, trees...)
	}
	out["mixed depths"] = assemble(mixed)
	leaves := make([]*tree.Tree, 9)
	for i := range leaves {
		leaves[i] = grow(0, 1000, uint64(i))
	}
	out["single leaves"] = assemble(leaves)
	lopsided := make([]*tree.Tree, 16)
	for i := range lopsided {
		lopsided[i] = grow(1, 1, uint64(50+i))
	}
	lopsided[3] = grow(14, 1, 7)
	out["one deep tree in a group"] = assemble(lopsided)
	return out
}

// walkRows are the rows the walk oracle scores: noise rows, and the
// same rows with entries replaced by NaN, ±Inf, ±0 or exactly one of
// the forest's thresholds, so comparisons land on every edge of <=.
func walkRows(f *Forest, w, n int, seed uint64) [][]float64 {
	var thresholds []float64
	for _, t := range f.trees {
		for i := range t.NodeCount() {
			if nv := t.Node(i); nv.Feature >= 0 {
				thresholds = append(thresholds, nv.Threshold)
			}
		}
	}
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	rng := rng.New(seed)
	rows := make([][]float64, n)
	for r := range rows {
		x := make([]float64, w)
		for j := range x {
			x[j] = rng.NormFloat64()
			switch k := rng.Intn(8); {
			case k == 0:
				x[j] = special[rng.Intn(len(special))]
			case k <= 2 && len(thresholds) > 0:
				x[j] = thresholds[rng.Intn(len(thresholds))]
			}
		}
		rows[r] = x
	}
	return rows
}

// TestWalkMatchesReference holds every scoring path of the flat walk to
// the sum of tree.Score, bit for bit, on both paths: Forest.Score,
// Flat.Score, Flat.ScoreRows at odd row counts and with a matrix stride
// wider than the forest, and all of them again after the forest has
// been through MarshalBinary and UnmarshalBinary.
func TestWalkMatchesReference(t *testing.T) { bothPaths(t, testWalkMatchesReference) }

func testWalkMatchesReference(t *testing.T) {
	for name, f := range walkForests(t) {
		data, err := f.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var decoded Forest
		if err := decoded.UnmarshalBinary(data); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, g := range []struct {
			how string
			f   *Forest
		}{{"trained", f}, {"decoded", &decoded}} {
			fl, err := g.f.Flatten()
			if err != nil {
				t.Fatal(err)
			}
			w := max(dataset.NumFeatures, fl.Width())
			for _, stride := range []int{w, w + 3} {
				for _, n := range []int{1, 7, 8, 13, 64} {
					rows := walkRows(f, stride, n, uint64(n*stride))
					X := make([]float64, 0, n*stride)
					for _, x := range rows {
						X = append(X, x...)
					}
					out := make([]float64, n)
					fl.ScoreRows(X, stride, out)
					for i, x := range rows {
						want := referenceScore(f.trees, x)
						for path, got := range map[string]float64{
							"Forest.Score":   g.f.Score(x),
							"Flat.Score":     fl.Score(x),
							"Flat.ScoreRows": out[i],
						} {
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%s (%s), stride %d, %d rows, row %d: %s = %v, sum of tree.Score = %v",
									name, g.how, stride, n, i, path, got, want)
							}
						}
					}
				}
			}
		}
	}
}

func TestFlattenUntrainedForest(t *testing.T) {
	fl, err := New(DefaultConfig()).Flatten()
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, dataset.NumFeatures)
	if s := fl.Score(x); s != 0.5 {
		t.Errorf("untrained Flat.Score = %v, want 0.5", s)
	}
	out := make([]float64, 3)
	fl.ScoreRows(make([]float64, 3*dataset.NumFeatures), dataset.NumFeatures, out)
	for i, s := range out {
		if s != 0.5 {
			t.Errorf("untrained ScoreRows[%d] = %v, want 0.5", i, s)
		}
	}
}

// TestFlatScoreAllocs pins the zero-allocation contract of the forest's
// scoring hot path.
func TestFlatScoreAllocs(t *testing.T) {
	f, test := trainedForest(t)
	fl, err := f.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	row := test.Row(0)
	var sink float64
	if a := testing.AllocsPerRun(200, func() { sink += fl.Score(row) }); a != 0 {
		t.Errorf("Flat.Score: %.1f allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { sink += f.Score(row) }); a != 0 {
		t.Errorf("Forest.Score: %.1f allocs/op, want 0", a)
	}
	out := make([]float64, test.Len())
	if a := testing.AllocsPerRun(50, func() { fl.ScoreRows(test.X, test.W(), out) }); a != 0 {
		t.Errorf("Flat.ScoreRows: %.1f allocs/op, want 0", a)
	}
	_ = sink
}

// FuzzFlatForestLoad holds the decoder and the flat walk to a joint
// invariant: any byte string UnmarshalBinary accepts has a flat layout
// (the decoder builds it), and every path of the walk — on the kernel
// and on the Go walk — scores bit-identically to the sum of tree.Score,
// on a row with NaN, ±Inf, ±0 and thresholds in it. No input may
// panic, loop, or index out of range.
func FuzzFlatForestLoad(f *testing.F) {
	train := mltest.TwoBlobs(120, 3, 1)
	small := New(Config{Trees: 3, MaxDepth: 4, MinLeaf: 2, Seed: 2})
	if err := small.Fit(train); err != nil {
		f.Fatal(err)
	}
	seed, err := small.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	for _, i := range []int{0, 8, len(seed) / 3, len(seed) - 1} {
		mut := append([]byte(nil), seed...)
		mut[i] ^= 0x40
		f.Add(mut)
	}
	empty, err := New(DefaultConfig()).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)

	f.Fuzz(func(t *testing.T, data []byte) {
		var forest Forest
		if err := forest.UnmarshalBinary(data); err != nil {
			return
		}
		fl, err := forest.Flatten()
		if err != nil {
			t.Fatalf("decode accepted but Flatten rejected: %v", err)
		}
		width := fl.Width()
		if width > 1<<12 {
			// Structurally valid but absurdly wide; scoring it proves
			// nothing beyond what a capped width already covers.
			return
		}
		xs := [][]float64{make([]float64, width)}
		for i := range xs[0] {
			xs[0][i] = float64(i%7)*0.37 - 1
		}
		if width > 0 {
			xs = append(xs, walkRows(&forest, width, 3, uint64(len(data)))...)
		}
		for _, kernel := range []bool{vec.AVX2, false} {
			saved := vec.AVX2
			vec.AVX2 = kernel
			for _, x := range xs {
				want := referenceScore(forest.trees, x)
				if got := forest.Score(x); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("kernel %v: Forest.Score = %v, sum of tree.Score = %v", kernel, got, want)
				}
				if got := fl.Score(x); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("kernel %v: Flat.Score = %v, sum of tree.Score = %v", kernel, got, want)
				}
				out := make([]float64, 1)
				fl.ScoreRows(x, width, out)
				if width > 0 && math.Float64bits(out[0]) != math.Float64bits(want) {
					t.Fatalf("kernel %v: ScoreRows = %v, sum of tree.Score = %v", kernel, out[0], want)
				}
			}
			vec.AVX2 = saved
		}
	})
}

// TestShortRowFailsLikeTheGoWalk: the walk kernel reads x unchecked, so a
// row shorter than Width must never reach it. A row one feature short,
// cut from a full row so that the kernel would find a plausible value
// past its end, must fail through Forest.Score and Flat.Score, with the
// kernel enabled and without, exactly as the Go walk fails.
func TestShortRowFailsLikeTheGoWalk(t *testing.T) {
	f, test := trainedForest(t)
	fl, err := f.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	failure := func(score func([]float64) float64, x []float64) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		score(x)
		return ""
	}
	saved := vec.AVX2
	defer func() { vec.AVX2 = saved }()

	// The Go walk fails on a short row once some tree reaches a split on
	// the missing feature; find a test row whose walk does.
	vec.AVX2 = false
	var short []float64
	var want string
	for i := 0; i < test.Len() && want == ""; i++ {
		short = test.Row(i)[:fl.Width()-1]
		want = failure(fl.sumLeaves, short)
	}
	if want == "" {
		t.Fatal("no test row's walk reaches a split on the last feature")
	}
	for _, kernel := range []bool{saved, false} {
		vec.AVX2 = kernel
		if got := failure(fl.Score, short); got != want {
			t.Errorf("kernel %v: Flat.Score of a short row failed with %q, the Go walk with %q", kernel, got, want)
		}
		if got := failure(f.Score, short); got != want {
			t.Errorf("kernel %v: Forest.Score of a short row failed with %q, the Go walk with %q", kernel, got, want)
		}
	}
}
