// Package neuralnet implements a small multilayer perceptron for binary
// classification: fully connected layers with ReLU activations, a
// logistic output, binary cross-entropy loss, and Adam optimization.
//
// On hosts with AVX2 the forward pass of every layer with four or more
// units runs in internal/ml/vec's Affine kernel, one unit per SIMD lane,
// over a copy of the weights interleaved four units at a time; elsewhere
// it is a scalar loop, four units per pass. Training runs the backward
// pass in kernels too, one call per layer: AddOuter for a sample's
// gradient, Affine over an interleaved copy of the transposed weights
// for the delta of the layer below, and Adam for the update at the end
// of each mini-batch. Every sum has the same terms in the same order on
// both paths, so scores, fitted weights and Adam moments are
// bit-identical.
package neuralnet

import (
	"errors"
	"math"
	"slices"
	"sync"

	"ssdfail/internal/dataset"
	"ssdfail/internal/ml"
	"ssdfail/internal/ml/vec"
	"ssdfail/internal/rng"
)

// Config holds the MLP hyperparameters. Hidden layer sizes are the knob
// the paper reports tuning by grid search.
type Config struct {
	Hidden    []int // hidden layer widths, e.g. {32, 16}
	LearnRate float64
	Epochs    int
	BatchSize int
	L2        float64
	Seed      uint64
}

// DefaultConfig returns the configuration used by the Table 6 harness.
func DefaultConfig() Config {
	return Config{Hidden: []int{32, 16}, LearnRate: 3e-3, Epochs: 80, BatchSize: 32, L2: 1e-4, Seed: 1}
}

// layer is one dense layer with Adam state.
type layer struct {
	in, out int
	w       []float64 // out x in, row-major
	b       []float64
	// simd is vec.AVX2 when the layer was made: whether Fit runs the
	// layer's gradient, backward and Adam kernels.
	simd bool
	// wi is w's first out/4*4 rows interleaved four at a time
	// (vec.Interleave4) for the AVX2 forward kernel; nil on the scalar
	// path. It is refreshed from w after every update.
	wi []float64
	// wti is the transpose of w's first in/4*4 columns, interleaved the
	// same way, for the AVX2 backward kernel; nil on the scalar path and
	// for the first layer, whose input needs no delta. It is refreshed
	// with wi.
	wti []float64
	// Adam moments.
	mw, vw []float64
	mb, vb []float64
}

func newLayer(in, out int, rng *rng.RNG, backprop bool) *layer {
	l := &layer{
		in: in, out: out, simd: vec.AVX2,
		w: make([]float64, in*out), b: make([]float64, out),
		mw: make([]float64, in*out), vw: make([]float64, in*out),
		mb: make([]float64, out), vb: make([]float64, out),
	}
	// He initialization for ReLU layers.
	scale := math.Sqrt(2 / float64(in))
	for i := range l.w {
		l.w[i] = rng.NormFloat64() * scale
	}
	if l.simd && out >= 4 {
		l.wi = make([]float64, out/4*4*in)
	}
	if l.simd && backprop && in >= 4 {
		l.wti = make([]float64, in/4*4*out)
	}
	l.interleave()
	return l
}

// interleave refreshes the kernels' copies of the weights. Block b of
// wti holds, for each unit o in turn, w[o][4b:4b+4]: column i of w is
// row i of the transpose, so the four rows of a block are four
// neighbouring inputs.
func (l *layer) interleave() {
	if l.wi != nil {
		vec.Interleave4(l.wi, l.w[:len(l.wi)], l.in)
	}
	for b := 0; b < len(l.wti); b += 4 * l.out {
		blk := l.wti[b : b+4*l.out]
		col := b / l.out
		for o := range l.out {
			copy(blk[o*4:o*4+4], l.w[o*l.in+col:])
		}
	}
}

// Model is a trained MLP.
type Model struct {
	cfg    Config
	scaler *dataset.Scaler
	layers []*layer
	bufs   *sync.Pool // *forwardBuffers for the fitted layers, one per concurrent Score
}

// New returns an untrained model.
func New(cfg Config) *Model { return &Model{cfg: cfg} }

// Name implements ml.Classifier.
func (m *Model) Name() string { return "Neural Network" }

// forwardBuffers holds per-layer activations and deltas for one pass.
type forwardBuffers struct {
	acts   [][]float64 // acts[0] is the input; acts[L] pre-output
	deltas [][]float64
}

func (m *Model) newBuffers() *forwardBuffers {
	fb := &forwardBuffers{}
	in := dataset.NumFeatures
	if len(m.layers) > 0 {
		in = m.layers[0].in
	}
	fb.acts = append(fb.acts, make([]float64, in))
	for _, l := range m.layers {
		fb.acts = append(fb.acts, make([]float64, l.out))
		fb.deltas = append(fb.deltas, make([]float64, l.out))
	}
	return fb
}

// forward runs the network on fb.acts[0], filling activations; the final
// activation (single unit) is returned as a probability. Each unit's sum
// keeps one order, bias first and then w*x input by input, each product
// rounded before it is added (the float64 conversion forbids a fused
// multiply-add, as the kernel uses none). The units of a layer's
// interleaved weights are summed by the kernel; the scalar loop sums
// four units per pass so their additions overlap, then the rest one by
// one.
func (m *Model) forward(fb *forwardBuffers) float64 {
	for li, l := range m.layers {
		in := fb.acts[li][:l.in]
		out := fb.acts[li+1][:l.out]
		o := 0
		if l.wi != nil {
			o = len(l.wi) / l.in
			vec.Affine(out[:o], l.b, l.wi, in)
		}
		for ; o+4 <= l.out; o += 4 {
			r0 := l.w[(o+0)*l.in:][:len(in)]
			r1 := l.w[(o+1)*l.in:][:len(in)]
			r2 := l.w[(o+2)*l.in:][:len(in)]
			r3 := l.w[(o+3)*l.in:][:len(in)]
			s0, s1, s2, s3 := l.b[o], l.b[o+1], l.b[o+2], l.b[o+3]
			for i, v := range in {
				s0 += float64(r0[i] * v)
				s1 += float64(r1[i] * v)
				s2 += float64(r2[i] * v)
				s3 += float64(r3[i] * v)
			}
			out[o], out[o+1], out[o+2], out[o+3] = s0, s1, s2, s3
		}
		for ; o < l.out; o++ {
			s := l.b[o]
			row := l.w[o*l.in:][:len(in)]
			for i, v := range in {
				s += float64(row[i] * v)
			}
			out[o] = s
		}
		if li < len(m.layers)-1 {
			for o, s := range out {
				out[o] = zeroIf(s, s < 0) // ReLU on hidden layers
			}
		}
	}
	return ml.Sigmoid(fb.acts[len(m.layers)][0])
}

// Fit implements ml.Classifier.
func (m *Model) Fit(data *dataset.Matrix) error {
	n := data.Len()
	if n == 0 {
		return errors.New("neuralnet: empty training set")
	}
	m.scaler = dataset.FitScaler(data)
	scaled := m.scaler.Apply(data)

	rng := rng.New(m.cfg.Seed ^ 0x4e7)
	sizes := append([]int{data.W()}, m.cfg.Hidden...)
	sizes = append(sizes, 1)
	m.layers = nil
	for i := 0; i+1 < len(sizes); i++ {
		m.layers = append(m.layers, newLayer(sizes[i], sizes[i+1], rng, i > 0))
	}

	m.bufs = &sync.Pool{New: func() any { return m.newBuffers() }}
	fb := m.newBuffers()
	gw := make([][]float64, len(m.layers))
	gb := make([][]float64, len(m.layers))
	for li, l := range m.layers {
		gw[li] = make([]float64, len(l.w))
		gb[li] = make([]float64, len(l.b))
	}
	zeros := make([]float64, slices.Max(sizes))
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	bs := m.cfg.BatchSize
	if bs <= 0 {
		bs = 32
	}
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	step := 0
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		for start := 0; start < n; start += bs {
			end := start + bs
			if end > n {
				end = n
			}
			// Accumulate gradients over the mini-batch.
			for li := range m.layers {
				clear(gw[li])
				clear(gb[li])
			}
			for _, idx := range order[start:end] {
				copy(fb.acts[0], scaled.Row(idx))
				p := m.forward(fb)
				// Output delta for BCE + sigmoid.
				fb.deltas[len(m.layers)-1][0] = p - float64(scaled.Y[idx])
				// Backpropagate.
				for li := len(m.layers) - 1; li >= 0; li-- {
					l := m.layers[li]
					l.accumulate(gw[li], gb[li], fb.deltas[li], fb.acts[li])
					if li > 0 {
						l.backprop(fb.deltas[li-1], fb.deltas[li], fb.acts[li], zeros)
					}
				}
			}
			// Adam update.
			step++
			st := vec.AdamStep{
				Inv:   1 / float64(end-start),
				L2:    m.cfg.L2,
				Beta1: beta1, Beta2: beta2,
				OneMinusBeta1: 1 - beta1, OneMinusBeta2: 1 - beta2,
				LR:  m.cfg.LearnRate,
				BC1: 1 - math.Pow(beta1, float64(step)),
				BC2: 1 - math.Pow(beta2, float64(step)),
				Eps: eps,
			}
			for li, l := range m.layers {
				l.adam(gw[li], gb[li], &st)
				l.interleave()
			}
		}
	}
	return nil
}

// accumulate adds one sample's gradient for the layer: for every unit o
// whose delta is not zero, gb[o] += delta[o] and gw[o][i] +=
// delta[o]*in[i]. The AVX2 path makes one kernel call for the layer.
func (l *layer) accumulate(gw, gb, delta, in []float64) {
	if l.simd {
		vec.AddOuter(gw, gb, delta, in[:l.in])
		return
	}
	for o := 0; o < l.out; o++ {
		d := delta[o]
		if d == 0 {
			continue
		}
		gb[o] += d
		row := gw[o*l.in:][:len(in)]
		for i, v := range in {
			row[i] += float64(d * v)
		}
	}
}

// backprop writes the delta of the layer below to prev: prev[i] is the
// sum over units o, in o order from +0, of w[o][i]*delta[o], then zero
// where the layer's input act[i] is not positive (the ReLU derivative).
// On the AVX2 path the sums over wti are one vec.Affine call with a
// zero bias, one input per lane; columns past the last whole block and
// the scalar path walk the weight rows.
func (l *layer) backprop(prev, delta, act, zeros []float64) {
	i0 := 0
	if l.wti != nil {
		i0 = len(l.wti) / l.out
		vec.Affine(prev[:i0], zeros, l.wti, delta)
	}
	if i0 < len(prev) {
		rest := prev[i0:]
		clear(rest)
		for o, d := range delta {
			row := l.w[o*l.in+i0:][:len(rest)]
			for i, wv := range row {
				rest[i] += float64(wv * d)
			}
		}
	}
	for i, a := range act {
		prev[i] = zeroIf(prev[i], a <= 0)
	}
}

// zeroIf returns +0 when zero holds and v otherwise, without a branch:
// the ReLU's sign tests go either way at random, so a branch on them
// is mispredicted about half the time.
func zeroIf(v float64, zero bool) float64 {
	var keep uint64
	if !zero {
		keep = 1
	}
	return math.Float64frombits(math.Float64bits(v) & -keep)
}

// adam applies one Adam step to the layer's weights (with weight decay)
// and biases (without). The AVX2 path makes one kernel call for each.
func (l *layer) adam(gw, gb []float64, st *vec.AdamStep) {
	if l.simd {
		st.Decay = true
		vec.Adam(l.w, l.mw, l.vw, gw, st)
		st.Decay = false
		vec.Adam(l.b, l.mb, l.vb, gb, st)
		return
	}
	for i := range l.w {
		g := float64(gw[i]*st.Inv) + float64(st.L2*l.w[i])
		l.mw[i] = float64(st.Beta1*l.mw[i]) + float64(st.OneMinusBeta1*g)
		l.vw[i] = float64(st.Beta2*l.vw[i]) + float64(st.OneMinusBeta2*g*g)
		l.w[i] -= st.LR * (l.mw[i] / st.BC1) / (math.Sqrt(l.vw[i]/st.BC2) + st.Eps)
	}
	for o := range l.b {
		g := gb[o] * st.Inv
		l.mb[o] = float64(st.Beta1*l.mb[o]) + float64(st.OneMinusBeta1*g)
		l.vb[o] = float64(st.Beta2*l.vb[o]) + float64(st.OneMinusBeta2*g*g)
		l.b[o] -= st.LR * (l.mb[o] / st.BC1) / (math.Sqrt(l.vb[o]/st.BC2) + st.Eps)
	}
}

// Score implements ml.Classifier.
func (m *Model) Score(x []float64) float64 {
	if m.layers == nil {
		return 0.5
	}
	fb := m.bufs.Get().(*forwardBuffers)
	copy(fb.acts[0], x)
	m.scaler.Transform(fb.acts[0])
	p := m.forward(fb)
	m.bufs.Put(fb)
	return p
}
