//go:build amd64

package nn

// hasAVX gates the vector kernels at runtime: AVX requires both the CPU
// feature flag and OS support for saving YMM state (OSXSAVE + XGETBV).
var hasAVX = cpuHasAVX()

// cpuHasAVX is implemented in dense_kernel_amd64.s via CPUID/XGETBV.
func cpuHasAVX() bool

// axpy1avx is the AVX form of axpy1Go. It uses VMULPD/VADDPD (and their
// scalar VEX forms for the length tail), which round each lane exactly
// like the scalar Go code — no FMA — so results are bit-identical to the
// portable kernel.
//
//go:noescape
func axpy1avx(v float64, w, o *float64, n int)

// gemmaccavx and dotrowsavx are the AVX tile kernels (see gemmAccGo and
// dotRowsGo for their definitions); adamavx is the vectorised Adam update
// (see vadamGo). The slice wrappers below are bound through the dispatch
// table; bounds are checked by the callers (gemmAcc, dotRows, Adam.Step).
//
//go:noescape
func gemmaccavx(c *float64, ldc int, a *float64, ars, ats int, b *float64, ldb, m, n, k int) bool

//go:noescape
func dotrowsavx(out, a, b *float64, ldb, nj, n int)

func gemmAccAVX(c []float64, ldc int, a []float64, ars, ats int, b []float64, ldb, m, n, k int) bool {
	if k == 0 {
		// No terms: only the NaN report is needed, and a/b may be empty.
		return gemmAccGo(c, ldc, a, ars, ats, b, ldb, m, n, 0)
	}
	return gemmaccavx(&c[0], ldc, &a[0], ars, ats, &b[0], ldb, m, n, k)
}

func dotRowsAVX(out, a, b []float64, ldb int) {
	if len(a) == 0 {
		for j := range out {
			out[j] = 0
		}
		return
	}
	dotrowsavx(&out[0], &a[0], &b[0], ldb, len(out), len(a))
}

func axpy1(v float64, w, o []float64) {
	if simdActive && len(w) > 0 {
		axpy1avx(v, &w[0], &o[0], len(w))
		return
	}
	axpy1Go(v, w, o)
}
