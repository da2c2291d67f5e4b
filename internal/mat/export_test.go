package mat

// The external tests (package mat_test) compare the kernels with the
// references in packages that import mat, such as spatial's MulD.

var (
	WithAVX2   = withAVX2
	DefaultNaN = defaultNaN
	SameBits   = sameBits
)

// VectorBodies reports whether the kernels run their AVX2 bodies here.
func VectorBodies() bool { return useAVX2 }
