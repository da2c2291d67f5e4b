//go:build !amd64

package mat

// useAVX2 is false off amd64: the row kernels run their portable bodies.
var useAVX2 = false

// The vector bodies exist on amd64 only; useAVX2 keeps these unreachable.

func rowMulAVX2(p, u, v []float64, m int) { panic("mat: no vector row kernels") }

func dotPairsAVX2(num, den, x, e, vt []float64) { panic("mat: no vector row kernels") }

func accumPairsAVX2(num, den, u, x, e []float64) { panic("mat: no vector row kernels") }

func graphWalkAVX2(out, u []float64, k int, ptr []int, adj []int32, laplacian bool) (float64, bool) {
	panic("mat: no vector row kernels")
}
