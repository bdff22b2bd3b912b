package vec

// cpuid executes CPUID for the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0, the set of register states
// the OS saves on a context switch.
func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the CPU has AVX2 and the OS has enabled the
// XMM and YMM register state (OSXSAVE set, XCR0 bits 1 and 2).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// sqDistPairs is SqDists over pairs*8 rows of width w, in vec_amd64.s.
//
//go:noescape
func sqDistPairs(dst, q, blocks *float64, pairs, w, cut int, bound float64) uint64

// affineBlocks is Affine over n blocks of four units with in inputs
// each, in vec_amd64.s.
//
//go:noescape
func affineBlocks(dst, bias, blocks, x *float64, n, in int)

// addOuter is AddOuter over out units of in inputs, in vec_amd64.s.
//
//go:noescape
func addOuter(gw, gb, delta, x *float64, out, in int)

// adamStep is Adam over n parameters, in vec_amd64.s.
//
//go:noescape
func adamStep(p, m, v, grad *float64, n int, s *AdamStep)
