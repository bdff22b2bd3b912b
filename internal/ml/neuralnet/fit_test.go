package neuralnet

import (
	"fmt"
	"math"
	"testing"

	"ssdfail/internal/dataset"
	"ssdfail/internal/ml"
	"ssdfail/internal/ml/mltest"
	"ssdfail/internal/rng"
)

// refLayer is a dense layer as referenceFit keeps it: row-major
// weights and their Adam moments, nothing interleaved.
type refLayer struct {
	in, out int
	w, b    []float64
	mw, vw  []float64
	mb, vb  []float64
}

// refForward is the forward pass one unit at a time, bias first, then
// the inputs left to right; acts[0] is the input.
func refForward(layers []*refLayer, acts [][]float64) float64 {
	for li, l := range layers {
		in, out := acts[li], acts[li+1]
		for o := range out {
			s := l.b[o]
			for i, v := range in {
				s += float64(l.w[o*l.in+i] * v)
			}
			if li < len(layers)-1 && s < 0 {
				s = 0
			}
			out[o] = s
		}
	}
	return ml.Sigmoid(acts[len(layers)][0])
}

// referenceFit is Fit as a scalar loop over one sample at a time:
// every unit's gradient, every delta of the layer below, and every
// Adam update computed element by element, with each product rounded
// before it is added. Fit's kernels must reproduce it bit for bit.
func referenceFit(cfg Config, data *dataset.Matrix) ([]*refLayer, *dataset.Scaler) {
	n := data.Len()
	scaler := dataset.FitScaler(data)
	scaled := scaler.Apply(data)
	rng := rng.New(cfg.Seed ^ 0x4e7)
	sizes := append([]int{data.W()}, cfg.Hidden...)
	sizes = append(sizes, 1)
	var layers []*refLayer
	for i := 0; i+1 < len(sizes); i++ {
		in, out := sizes[i], sizes[i+1]
		l := &refLayer{in: in, out: out,
			w: make([]float64, in*out), b: make([]float64, out),
			mw: make([]float64, in*out), vw: make([]float64, in*out),
			mb: make([]float64, out), vb: make([]float64, out)}
		scale := math.Sqrt(2 / float64(in))
		for i := range l.w {
			l.w[i] = rng.NormFloat64() * scale
		}
		layers = append(layers, l)
	}
	acts := [][]float64{make([]float64, sizes[0])}
	var deltas, gw, gb [][]float64
	for _, l := range layers {
		acts = append(acts, make([]float64, l.out))
		deltas = append(deltas, make([]float64, l.out))
		gw = append(gw, make([]float64, len(l.w)))
		gb = append(gb, make([]float64, len(l.b)))
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	bs := cfg.BatchSize
	if bs <= 0 {
		bs = 32
	}
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	step := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		for start := 0; start < n; start += bs {
			end := min(start+bs, n)
			for li := range layers {
				clear(gw[li])
				clear(gb[li])
			}
			for _, idx := range order[start:end] {
				copy(acts[0], scaled.Row(idx))
				p := refForward(layers, acts)
				deltas[len(layers)-1][0] = p - float64(scaled.Y[idx])
				for li := len(layers) - 1; li >= 0; li-- {
					l := layers[li]
					delta, in := deltas[li], acts[li]
					for o := 0; o < l.out; o++ {
						d := delta[o]
						if d == 0 {
							continue
						}
						gb[li][o] += d
						row := gw[li][o*l.in:][:len(in)]
						for i, v := range in {
							row[i] += float64(d * v)
						}
					}
					if li > 0 {
						prev := deltas[li-1]
						clear(prev)
						for o, d := range delta {
							row := l.w[o*l.in:][:len(prev)]
							for i, wv := range row {
								prev[i] += float64(wv * d)
							}
						}
						for i, a := range acts[li] {
							if a <= 0 {
								prev[i] = 0
							}
						}
					}
				}
			}
			step++
			lr := cfg.LearnRate
			bc1 := 1 - math.Pow(beta1, float64(step))
			bc2 := 1 - math.Pow(beta2, float64(step))
			inv := 1 / float64(end-start)
			for li, l := range layers {
				for i := range l.w {
					g := float64(gw[li][i]*inv) + float64(cfg.L2*l.w[i])
					l.mw[i] = float64(beta1*l.mw[i]) + float64((1-beta1)*g)
					l.vw[i] = float64(beta2*l.vw[i]) + float64((1-beta2)*g*g)
					l.w[i] -= lr * (l.mw[i] / bc1) / (math.Sqrt(l.vw[i]/bc2) + eps)
				}
				for o := range l.b {
					g := gb[li][o] * inv
					l.mb[o] = float64(beta1*l.mb[o]) + float64((1-beta1)*g)
					l.vb[o] = float64(beta2*l.vb[o]) + float64((1-beta2)*g*g)
					l.b[o] -= lr * (l.mb[o] / bc1) / (math.Sqrt(l.vb[o]/bc2) + eps)
				}
			}
		}
	}
	return layers, scaler
}

// zeroedBlobs is TwoBlobs with exact zeros: two thirds of the columns
// are zero throughout (they scale to zero), every fifth row is zero
// everywhere, and a share of the other entries is zero. A unit whose
// inputs are all zero and whose bias is still zero sums to exactly
// zero, so the ReLU masks and the skipped zero deltas both occur.
func zeroedBlobs(n int, seed uint64) *dataset.Matrix {
	m := mltest.TwoBlobs(n, 1.5, seed)
	rng := rng.New(seed + 100)
	for i := 0; i < m.Len(); i++ {
		row := m.Row(i)
		for f := range row {
			if f%3 != 0 || i%5 == 0 || rng.Intn(4) == 0 {
				row[f] = 0
			}
		}
	}
	return m
}

// TestFitMatchesReferenceFit holds Fit to referenceFit bit for bit —
// weights, biases, all four Adam moments and every score — on both
// paths, across layer shapes that are and are not multiples of four,
// batch sizes of one, three, the default and more than the rows, and a
// row count that no batch size divides.
func TestFitMatchesReferenceFit(t *testing.T) { bothPaths(t, testFitMatchesReferenceFit) }

func testFitMatchesReferenceFit(t *testing.T) {
	train := zeroedBlobs(47, 1) // 94 rows
	test := zeroedBlobs(30, 2)
	for _, hidden := range [][]int{{32, 16}, {5, 3}, {6}, {1}} {
		for _, bs := range []int{1, 3, 32, 200} {
			t.Run(fmt.Sprintf("hidden=%v/batch=%d", hidden, bs), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Hidden = hidden
				cfg.BatchSize = bs
				cfg.Epochs = 4
				m := New(cfg)
				if err := m.Fit(train); err != nil {
					t.Fatal(err)
				}
				ref, scaler := referenceFit(cfg, train)
				if len(ref) != len(m.layers) {
					t.Fatalf("%d layers, reference %d", len(m.layers), len(ref))
				}
				for li, l := range m.layers {
					r := ref[li]
					for _, p := range []struct {
						name      string
						got, want []float64
					}{
						{"w", l.w, r.w}, {"b", l.b, r.b},
						{"mw", l.mw, r.mw}, {"vw", l.vw, r.vw},
						{"mb", l.mb, r.mb}, {"vb", l.vb, r.vb},
					} {
						for i := range p.want {
							if math.Float64bits(p.got[i]) != math.Float64bits(p.want[i]) {
								t.Fatalf("layer %d %s[%d] = %v, reference %v", li, p.name, i, p.got[i], p.want[i])
							}
						}
					}
				}
				acts := [][]float64{make([]float64, train.W())}
				for _, l := range ref {
					acts = append(acts, make([]float64, l.out))
				}
				for i := 0; i < test.Len(); i++ {
					copy(acts[0], test.Row(i))
					scaler.Transform(acts[0])
					want := refForward(ref, acts)
					if got := m.Score(test.Row(i)); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("row %d: Score = %v, reference %v", i, got, want)
					}
				}
			})
		}
	}
}
