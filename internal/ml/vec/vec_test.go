package vec

import (
	"math"
	"math/rand/v2"
	"testing"
)

func needAVX2(tb testing.TB) {
	tb.Helper()
	if !AVX2 {
		tb.Skip("the CPU or OS lacks AVX2; the kernels are never called here")
	}
}

// special are the values the kernels must carry through exactly as the
// scalar loops do: signed zeros, subnormals, the largest finite value
// (whose square overflows), infinities and NaN.
var special = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2e-308, -1e-310,
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
}

// fill draws each value from special with probability pSpecial, else
// from a unit normal.
func fill(rng *rand.Rand, xs []float64, pSpecial float64) {
	for i := range xs {
		if rng.Float64() < pSpecial {
			xs[i] = special[rng.IntN(len(special))]
		} else {
			xs[i] = rng.NormFloat64()
		}
	}
}

// same is bit equality, except that any two NaNs match: which NaN
// payload an operation returns depends on operand order, which the
// scalar compiler picks freely.
func same(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func TestInterleave4(t *testing.T) {
	const w = 3
	src := make([]float64, 8*w)
	for i := range src {
		src[i] = float64(i)
	}
	dst := make([]float64, len(src))
	Interleave4(dst, src, w)
	for row := 0; row < 8; row++ {
		for j := 0; j < w; j++ {
			if got, want := dst[(row/4)*4*w+j*4+row%4], src[row*w+j]; got != want {
				t.Fatalf("row %d column %d: %v, want %v", row, j, got, want)
			}
		}
	}
}

// TestSqDistsMatchesLoop holds the scan kernel to its plain-loop
// definition bit for bit — a pass's full sums when any of its partial
// sums at cut is below the bound, else the partial sums — and checks
// what the caller relies on: a written value is below the bound exactly
// when the full sum is, and is then the full sum, never a NaN; and the
// returned mask marks exactly the rows written below the bound.
func TestSqDistsMatchesLoop(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewPCG(1, 2))
	for _, w := range []int{1, 7, 33, 43} {
		for _, pairs := range []int{1, 2, 3, 5, 8} {
			for _, pSpecial := range []float64{0, 0.05, 0.5} {
				rows := pairs * 8
				src := make([]float64, rows*w)
				fill(rng, src, pSpecial)
				q := make([]float64, w)
				fill(rng, q, pSpecial)
				blocks := make([]float64, len(src))
				Interleave4(blocks, src, w)
				partial := make([]float64, rows)
				full := make([]float64, rows)
				for _, cut := range []int{0, 1, w / 2, min(8, w), w} {
					for r := range rows {
						var s float64
						for j, v := range src[r*w : (r+1)*w] {
							if j == cut {
								partial[r] = s
							}
							d := q[j] - v
							s += float64(d * d)
						}
						if cut == w {
							partial[r] = s
						}
						full[r] = s
					}
					for _, bound := range []float64{math.Inf(1), math.Inf(-1), 0, full[0], full[rows/2]} {
						dst := make([]float64, rows)
						below := SqDists(dst, q, blocks, cut, bound)
						for r := range rows {
							if below>>r&1 == 1 != (dst[r] < bound) {
								t.Fatalf("w=%d rows=%d cut=%d bound=%v row %d: mask bit %d for %v", w, rows, cut, bound, r, below>>r&1, dst[r])
							}
						}
						if rows < 64 && below>>rows != 0 {
							t.Fatalf("w=%d rows=%d: mask %#x has bits past the rows", w, rows, below)
						}
						for p := 0; p < rows; p += 8 {
							live := false
							for _, s := range partial[p : p+8] {
								live = live || s < bound
							}
							for r := p; r < p+8; r++ {
								want := partial[r]
								if live {
									want = full[r]
								}
								if !same(dst[r], want) {
									t.Fatalf("w=%d rows=%d cut=%d bound=%v row %d: %v, want %v", w, rows, cut, bound, r, dst[r], want)
								}
								if (dst[r] < bound) != (full[r] < bound) || (dst[r] < bound && !same(dst[r], full[r])) {
									t.Fatalf("w=%d cut=%d bound=%v row %d: wrote %v for full sum %v", w, cut, bound, r, dst[r], full[r])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestAffineMatchesLoop holds the layer kernel to the per-unit loop bit
// for bit — bias first, then w*x input by input — at block counts that
// exercise both the four-block pass and the one-block remainder.
func TestAffineMatchesLoop(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewPCG(3, 4))
	for _, in := range []int{1, 7, 33, 43} {
		for _, nBlocks := range []int{1, 2, 3, 4, 5, 7, 8, 9} {
			for _, pSpecial := range []float64{0, 0.05, 0.5} {
				units := nBlocks * 4
				w := make([]float64, units*in)
				fill(rng, w, pSpecial)
				x := make([]float64, in)
				fill(rng, x, pSpecial)
				bias := make([]float64, units+1) // longer than dst is allowed
				fill(rng, bias, pSpecial)
				blocks := make([]float64, len(w))
				Interleave4(blocks, w, in)
				dst := make([]float64, units)
				Affine(dst, bias, blocks, x)
				for u := range units {
					s := bias[u]
					for i, v := range x {
						s += float64(w[u*in+i] * v)
					}
					if !same(dst[u], s) {
						t.Fatalf("in=%d units=%d unit %d: %v, want %v", in, units, u, dst[u], s)
					}
				}
			}
		}
	}
}

func TestOperandChecks(t *testing.T) {
	for name, f := range map[string]func(){
		"SqDists rows not a multiple of 8": func() { SqDists(make([]float64, 4), make([]float64, 2), make([]float64, 8), 0, 1) },
		"SqDists more rows than the mask":  func() { SqDists(make([]float64, 72), make([]float64, 1), make([]float64, 72), 0, 1) },
		"SqDists cut past width":           func() { SqDists(make([]float64, 8), make([]float64, 2), make([]float64, 16), 3, 1) },
		"Affine short bias":                func() { Affine(make([]float64, 4), make([]float64, 3), make([]float64, 8), make([]float64, 2)) },
		"Interleave4 partial block":        func() { Interleave4(make([]float64, 6), make([]float64, 6), 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

var benchSink float64

// BenchmarkSqDists is one k-NN query's scan of a chunk of a grid-sized
// training set: 64 rows of 33 features, cut at 8, no pass dropped.
func BenchmarkSqDists(b *testing.B) {
	needAVX2(b)
	const rows, w = 64, 33
	rng := rand.New(rand.NewPCG(5, 6))
	src := make([]float64, rows*w)
	fill(rng, src, 0)
	blocks := make([]float64, len(src))
	Interleave4(blocks, src, w)
	q := make([]float64, w)
	fill(rng, q, 0)
	dst := make([]float64, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SqDists(dst, q, blocks, 8, math.Inf(1))
		benchSink += dst[0]
	}
}

// BenchmarkAffine is the Table 6 net's first hidden layer: 32 units
// over 33 inputs.
func BenchmarkAffine(b *testing.B) {
	needAVX2(b)
	const units, in = 32, 33
	rng := rand.New(rand.NewPCG(7, 8))
	w := make([]float64, units*in)
	fill(rng, w, 0)
	blocks := make([]float64, len(w))
	Interleave4(blocks, w, in)
	x := make([]float64, in)
	fill(rng, x, 0)
	bias := make([]float64, units)
	dst := make([]float64, units)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Affine(dst, bias, blocks, x)
		benchSink += dst[0]
	}
}
