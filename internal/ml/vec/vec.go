// Package vec holds the SIMD kernels of the training grid — the k-NN
// distance scan, the MLP's dense-layer sums (its forward pass, and its
// backward pass over the transposed weights), the MLP's per-layer
// gradient accumulation and its Adam step — written in AVX2 assembly
// for amd64.
//
// Every kernel keeps the scalar loop's arithmetic lane by lane. SqDists
// and Affine put one independent sum in each SIMD lane: a lane is one
// training row (k-NN) or one output unit (MLP), and it adds its terms in
// the same left-to-right order as the scalar loop it replaces. AddOuter
// and Adam update each element on its own, with the scalar loop's
// operations in the scalar loop's order. All use separate multiply and
// add instructions (never FMA) under the default MXCSR rounding, and
// IEEE square root and division are correctly rounded, so every value
// they produce equals the scalar one bit for bit; only the number of
// values in flight changes.
//
// The sums' operands are laid out in blocks of four rows interleaved by
// column (Interleave4), so one 256-bit load fetches the same column of
// four rows. Callers keep their scalar loops on row-major data for
// hosts without AVX2 and check AVX2 before choosing a layout.
package vec

// AVX2 reports whether the CPU and operating system can run the
// kernels: the CPU has AVX2 and the OS saves the YMM registers. It is
// set once at init. Tests clear it to run callers on their scalar path.
var AVX2 = hasAVX2()

// Interleave4 copies src, rows of w values stored row-major, into dst
// in blocks of four rows: block b holds column j of its rows r = 0..3
// at dst[b*4*w + j*4 + r]. len(src) must be a whole number of blocks
// and len(dst) at least len(src).
func Interleave4(dst, src []float64, w int) {
	if w <= 0 || len(src)%(4*w) != 0 || len(dst) < len(src) {
		panic("vec: Interleave4 wants whole blocks of four rows")
	}
	for b := 0; b < len(src); b += 4 * w {
		blk, rows := dst[b:b+4*w], src[b:b+4*w]
		for r := 0; r < 4; r++ {
			for j, v := range rows[r*w : (r+1)*w] {
				blk[j*4+r] = v
			}
		}
	}
}

// SqDists writes to dst the squared Euclidean distance from q to each
// of len(dst) rows stored in blocks (Interleave4 layout, width len(q)):
// the sum over columns j, left to right from zero, of (q[j]-x[j])².
// Rows are summed eight at a time, two blocks per pass. After the first
// cut columns, a pass whose eight partial sums are none below bound
// stops there and writes the partial sums instead. Squares only grow a
// sum, so a row's written value is below bound exactly when its full
// sum is, and then it is the full sum; a NaN is never below bound.
// The returned mask has bit r set when dst[r] < bound.
// len(dst) must be a multiple of 8 and at most 64, and 0 <= cut <= len(q).
//
// Only hosts with AVX2 may call it.
func SqDists(dst, q, blocks []float64, cut int, bound float64) uint64 {
	w := len(q)
	if w == 0 || len(dst)%8 != 0 || len(dst) > 64 || len(blocks) != len(dst)*w || cut < 0 || cut > w {
		panic("vec: SqDists operands do not match")
	}
	if len(dst) == 0 {
		return 0
	}
	return sqDistPairs(&dst[0], &q[0], &blocks[0], len(dst)/8, w, cut, bound)
}

// Affine writes to dst the dense-layer sums of len(dst) units whose
// weight rows are stored in blocks (Interleave4 layout, width len(x)):
// for unit u, bias[u] plus w[u][i]*x[i] added left to right. Units are
// summed thirty-two at a time (eight blocks per pass, so eight sums are
// in flight), then sixteen at a time, and a remainder one block at a
// time. len(dst) must be a multiple of 4 and len(bias) at least
// len(dst).
//
// Only hosts with AVX2 may call it.
func Affine(dst, bias, blocks, x []float64) {
	in := len(x)
	if in == 0 || len(dst)%4 != 0 || len(bias) < len(dst) || len(blocks) != len(dst)*in {
		panic("vec: Affine operands do not match")
	}
	if len(dst) == 0 {
		return
	}
	affineBlocks(&dst[0], &bias[0], &blocks[0], &x[0], len(dst)/4, in)
}

// AddOuter adds one sample's contribution to a dense layer's gradient:
// for every unit o whose delta[o] is not zero (a NaN is not zero),
// gb[o] += delta[o] and gw[o][i] += delta[o]*x[i] for each input i,
// each product rounded before it is added. gw is row-major, one row of
// len(x) per unit; len(gb) and len(gw)/len(x) must be len(delta).
//
// Only hosts with AVX2 may call it.
func AddOuter(gw, gb, delta, x []float64) {
	in := len(x)
	if in == 0 || len(gb) != len(delta) || len(gw) != len(delta)*in {
		panic("vec: AddOuter operands do not match")
	}
	if len(delta) == 0 {
		return
	}
	addOuter(&gw[0], &gb[0], &delta[0], &x[0], len(delta), in)
}

// AdamStep holds the scalars of one Adam step. OneMinusBeta1 and
// OneMinusBeta2 are passed rather than derived, so a caller whose betas
// are exact constants can pass the constants' exact differences.
type AdamStep struct {
	Inv                          float64 // scales the summed gradient: 1 / batch size
	L2                           float64 // weight decay, used when Decay
	Beta1, Beta2                 float64
	OneMinusBeta1, OneMinusBeta2 float64
	LR                           float64
	BC1, BC2                     float64 // the bias corrections 1-Beta1^t and 1-Beta2^t
	Eps                          float64
	Decay                        bool
}

// Adam applies one Adam step to the parameters p, with first and second
// moments m and v and summed gradients g, element by element:
//
//	gi := g[i]*Inv + L2*p[i]                   (just g[i]*Inv without Decay)
//	m[i] = Beta1*m[i] + OneMinusBeta1*gi
//	v[i] = Beta2*v[i] + OneMinusBeta2*gi*gi
//	p[i] = p[i] - LR*(m[i]/BC1) / (sqrt(v[i]/BC2) + Eps)
//
// with Go's left-to-right grouping and every operation rounded on its
// own. All four slices must have the same length.
//
// Only hosts with AVX2 may call it.
func Adam(p, m, v, g []float64, s *AdamStep) {
	n := len(p)
	if len(m) != n || len(v) != n || len(g) != n {
		panic("vec: Adam operands do not match")
	}
	if n == 0 {
		return
	}
	adamStep(&p[0], &m[0], &v[0], &g[0], n, s)
}
