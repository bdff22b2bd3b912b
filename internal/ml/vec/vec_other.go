//go:build !amd64

package vec

// hasAVX2 is false off amd64, so callers never reach the stubs below.
func hasAVX2() bool { return false }

func sqDistPairs(dst, q, blocks *float64, pairs, w, cut int, bound float64) uint64 {
	panic("vec: no SIMD kernels on this architecture")
}

func affineBlocks(dst, bias, blocks, x *float64, n, in int) {
	panic("vec: no SIMD kernels on this architecture")
}

func addOuter(gw, gb, delta, x *float64, out, in int) {
	panic("vec: no SIMD kernels on this architecture")
}

func adamStep(p, m, v, grad *float64, n int, s *AdamStep) {
	panic("vec: no SIMD kernels on this architecture")
}
