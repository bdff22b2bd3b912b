package vec

import (
	"math"
	"math/rand/v2"
	"testing"
	"unsafe"
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
		for _, nBlocks := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 17} {
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

// TestAddOuterMatchesLoop holds the gradient kernel to the per-unit
// loop bit for bit — a zero delta (either sign) skips its unit, a NaN
// one does not — at widths that exercise the sixteen- and four-wide
// steps and the one-wide remainder, and at unit counts past one chunk
// of 64.
func TestAddOuterMatchesLoop(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewPCG(9, 10))
	for _, in := range []int{1, 3, 4, 7, 16, 33} {
		for _, out := range []int{1, 2, 5, 16, 32, 64, 65, 130} {
			for _, pSpecial := range []float64{0, 0.05, 0.5} {
				delta := make([]float64, out)
				fill(rng, delta, pSpecial)
				for o := range delta {
					if rng.IntN(3) == 0 {
						delta[o] = 0
					}
				}
				x := make([]float64, in)
				fill(rng, x, pSpecial)
				gw := make([]float64, out*in)
				fill(rng, gw, pSpecial)
				gb := make([]float64, out)
				fill(rng, gb, pSpecial)
				wantW, wantB := append([]float64(nil), gw...), append([]float64(nil), gb...)
				for o, d := range delta {
					if d == 0 {
						continue
					}
					wantB[o] += d
					for i, v := range x {
						wantW[o*in+i] += float64(d * v)
					}
				}
				AddOuter(gw, gb, delta, x)
				for i := range gw {
					if !same(gw[i], wantW[i]) {
						t.Fatalf("in=%d out=%d gw[%d]: %v, want %v", in, out, i, gw[i], wantW[i])
					}
				}
				for o := range gb {
					if !same(gb[o], wantB[o]) {
						t.Fatalf("in=%d out=%d gb[%d]: %v, want %v", in, out, o, gb[o], wantB[o])
					}
				}
			}
		}
	}
}

// adamLoop is the scalar Adam step Adam must reproduce.
func adamLoop(p, m, v, g []float64, s *AdamStep) {
	for i := range p {
		gi := g[i] * s.Inv
		if s.Decay {
			gi = g[i]*s.Inv + s.L2*p[i]
		}
		m[i] = s.Beta1*m[i] + s.OneMinusBeta1*gi
		v[i] = s.Beta2*v[i] + s.OneMinusBeta2*gi*gi
		p[i] -= s.LR * (m[i] / s.BC1) / (math.Sqrt(v[i]/s.BC2) + s.Eps)
	}
}

// TestAdamMatchesLoop holds the Adam kernel to the scalar step bit for
// bit, with and without weight decay, on lengths that exercise the
// four-wide step and the one-wide remainder, over several steps.
func TestAdamMatchesLoop(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewPCG(11, 12))
	const beta1, beta2 = 0.9, 0.999
	for _, n := range []int{1, 3, 4, 7, 16, 33, 1056} {
		for _, pSpecial := range []float64{0, 0.05, 0.5} {
			for _, decay := range []bool{false, true} {
				p, m, v := make([]float64, n), make([]float64, n), make([]float64, n)
				fill(rng, p, pSpecial)
				fill(rng, m, pSpecial)
				for i := range v {
					v[i] = math.Abs(rng.NormFloat64())
				}
				wp, wm, wv := append([]float64(nil), p...), append([]float64(nil), m...), append([]float64(nil), v...)
				g := make([]float64, n)
				for step := 1; step <= 3; step++ {
					fill(rng, g, pSpecial)
					s := &AdamStep{
						Inv: 1 / float64(1+rng.IntN(40)), L2: 1e-4,
						Beta1: beta1, Beta2: beta2, OneMinusBeta1: 1 - beta1, OneMinusBeta2: 1 - beta2,
						LR: 3e-3, BC1: 1 - math.Pow(beta1, float64(step)), BC2: 1 - math.Pow(beta2, float64(step)),
						Eps: 1e-8, Decay: decay,
					}
					adamLoop(wp, wm, wv, g, s)
					Adam(p, m, v, g, s)
					for i := range p {
						if !same(p[i], wp[i]) || !same(m[i], wm[i]) || !same(v[i], wv[i]) {
							t.Fatalf("n=%d decay=%v step %d [%d]: (p, m, v) = (%v, %v, %v), want (%v, %v, %v)",
								n, decay, step, i, p[i], m[i], v[i], wp[i], wm[i], wv[i])
						}
					}
				}
			}
		}
	}
}

// TestAdamStepLayout pins the AdamStep field offsets the assembly reads.
func TestAdamStepLayout(t *testing.T) {
	var s AdamStep
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"Inv", unsafe.Offsetof(s.Inv), 0},
		{"L2", unsafe.Offsetof(s.L2), 8},
		{"Beta1", unsafe.Offsetof(s.Beta1), 16},
		{"Beta2", unsafe.Offsetof(s.Beta2), 24},
		{"OneMinusBeta1", unsafe.Offsetof(s.OneMinusBeta1), 32},
		{"OneMinusBeta2", unsafe.Offsetof(s.OneMinusBeta2), 40},
		{"LR", unsafe.Offsetof(s.LR), 48},
		{"BC1", unsafe.Offsetof(s.BC1), 56},
		{"BC2", unsafe.Offsetof(s.BC2), 64},
		{"Eps", unsafe.Offsetof(s.Eps), 72},
		{"Decay", unsafe.Offsetof(s.Decay), 80},
	} {
		if f.got != f.want {
			t.Errorf("AdamStep.%s at offset %d, the assembly reads %d", f.name, f.got, f.want)
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
		"AddOuter short gradient":          func() { AddOuter(make([]float64, 5), make([]float64, 2), make([]float64, 2), make([]float64, 3)) },
		"AddOuter short bias gradient":     func() { AddOuter(make([]float64, 6), make([]float64, 1), make([]float64, 2), make([]float64, 3)) },
		"Adam short moment": func() {
			Adam(make([]float64, 4), make([]float64, 3), make([]float64, 4), make([]float64, 4), &AdamStep{})
		},
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

// BenchmarkAddOuter is one sample's gradient for the Table 6 net's first
// hidden layer: 32 units over 33 inputs, every delta nonzero.
func BenchmarkAddOuter(b *testing.B) {
	needAVX2(b)
	const units, in = 32, 33
	rng := rand.New(rand.NewPCG(13, 14))
	delta := make([]float64, units)
	fill(rng, delta, 0)
	x := make([]float64, in)
	fill(rng, x, 0)
	gw, gb := make([]float64, units*in), make([]float64, units)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddOuter(gw, gb, delta, x)
	}
	benchSink += gw[0]
}

// BenchmarkAdam is one Adam step of the Table 6 net's first hidden
// layer's weights: 32 × 33 parameters. The same gradient applied over
// and over drifts the moments toward subnormals, where the divisions
// slow down; every 64 steps the state is reset to the first step's.
func BenchmarkAdam(b *testing.B) {
	needAVX2(b)
	const n = 32 * 33
	rng := rand.New(rand.NewPCG(15, 16))
	p0, g := make([]float64, n), make([]float64, n)
	fill(rng, p0, 0)
	fill(rng, g, 0)
	p, m, v := append([]float64(nil), p0...), make([]float64, n), make([]float64, n)
	s := &AdamStep{Inv: 1.0 / 32, L2: 1e-4, Beta1: 0.9, Beta2: 0.999, OneMinusBeta1: 0.1, OneMinusBeta2: 0.001,
		LR: 3e-3, BC1: 0.1, BC2: 0.001, Eps: 1e-8, Decay: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			copy(p, p0)
			clear(m)
			clear(v)
		}
		Adam(p, m, v, g, s)
	}
	benchSink += p[0]
}
