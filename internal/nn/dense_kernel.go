package nn

import "math"

// Portable kernels for the Dense products: the tile kernel behind the
// forward and weight gradient, the input-gradient dot rows, and the axpy
// of the zero-skipping reference loops. On amd64 with AVX-capable
// hardware these are replaced at runtime by the vector versions in
// dense_kernel_amd64.s; the vector code uses only per-lane IEEE mul and
// add (never fused multiply-add), so both implementations produce
// bit-identical results, pinned by the golden tests in
// dense_golden_test.go, dense_kernel_test.go and infer_test.go.

// axpy1Go adds v times a weight row into an output row: o[k] += v*w[k].
func axpy1Go(v float64, w, o []float64) {
	w = w[:len(o)]
	for k, wk := range w {
		o[k] += v * wk
	}
}

// gemmAccGo is the portable twin of the register-blocked tile kernel and
// its definition: c[r*ldc+j] += Σ_t a[r*ars+t*ats]·b[t*ldb+j] for r < m,
// j < n, with the terms of every output element added in ascending t
// order, one rounded multiply and one rounded add each — the order of an
// axpy sweep over t. It reports whether any element of the m×n result
// block is NaN.
func gemmAccGo(c []float64, ldc int, a []float64, ars, ats int, b []float64, ldb, m, n, k int) bool {
	nan := false
	for r := 0; r < m; r++ {
		cr := c[r*ldc : r*ldc+n]
		for t := 0; t < k; t++ {
			axpy1Go(a[r*ars+t*ats], b[t*ldb:], cr)
		}
		nan = nan || !nanFree(cr)
	}
	return nan
}

// dotRowsGo is the portable twin of the input-gradient tile kernel:
// out[j] = vdotGo(a, b[j*ldb : j*ldb+len(a)]) for j < len(out).
func dotRowsGo(out, a, b []float64, ldb int) {
	for j := range out {
		out[j] = vdotGo(a, b[j*ldb:j*ldb+len(a)])
	}
}

// gemmAcc is the bounds-checked entry to the bound tile kernel (see
// gemmAccGo for the definition). Strides are in elements and must be
// non-negative; every index the kernel can touch is checked here, so the
// assembly twin never reads or writes outside the slices.
func gemmAcc(c []float64, ldc int, a []float64, ars, ats int, b []float64, ldb, m, n, k int) bool {
	if m <= 0 || n <= 0 {
		return false
	}
	if ldc < n || ars < 0 || ats < 0 || ldb < n || k < 0 {
		panic("nn: gemmAcc: invalid strides")
	}
	_ = c[(m-1)*ldc+n-1]
	if k > 0 {
		_ = a[(m-1)*ars+(k-1)*ats]
		_ = b[(k-1)*ldb+n-1]
	}
	return vgemm(c, ldc, a, ars, ats, b, ldb, m, n, k)
}

// dotRows is the bounds-checked entry to the bound input-gradient kernel:
// out[j] = vdot(a, b[j*ldb : j*ldb+len(a)]) for j < len(out).
func dotRows(out, a, b []float64, ldb int) {
	if len(out) == 0 {
		return
	}
	if ldb < len(a) {
		panic("nn: dotRows: invalid stride")
	}
	if len(a) > 0 {
		_ = b[(len(out)-1)*ldb+len(a)-1]
	}
	vdotRows(out, a, b, ldb)
}

// zeroFree reports whether no element of s is ±0.
func zeroFree(s []float64) bool {
	for _, v := range s {
		if v == 0 {
			return false
		}
	}
	return true
}

// negZeroFree reports whether no element of s is −0. It compares bit
// patterns: one integer compare per element instead of a float compare
// plus a sign test.
func negZeroFree(s []float64) bool {
	const negZero = 1 << 63
	for _, v := range s {
		if math.Float64bits(v) == negZero {
			return false
		}
	}
	return true
}

// nanFree reports whether no element of s is NaN.
func nanFree(s []float64) bool {
	for _, v := range s {
		if v != v {
			return false
		}
	}
	return true
}

// allFinite reports whether every element of s is finite: ±Inf and NaN
// are exactly the values whose exponent bits are all set.
func allFinite(s []float64) bool {
	const exp = 0x7ff << 52
	for _, v := range s {
		if math.Float64bits(v)&exp == exp {
			return false
		}
	}
	return true
}
