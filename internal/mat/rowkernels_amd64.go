package mat

// useAVX2 selects the row kernels' vector bodies. It is set once, from the
// CPU's feature bits; the kernel tests flip it to run both bodies.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU has AVX and AVX2 and the OS saves the YMM
// registers across context switches (XCR0 bits 1 and 2).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func rowMulAVX2(p, u, v []float64, m int)

//go:noescape
func dotPairsAVX2(num, den, x, e, vt []float64)

//go:noescape
func accumPairsAVX2(num, den, u, x, e []float64)

//go:noescape
func graphWalkAVX2(out, u []float64, k int, ptr []int, adj []int32, laplacian bool) (s float64, ok bool)
