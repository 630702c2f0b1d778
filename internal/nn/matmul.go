package nn

// Exported entry points to the Dense tile kernel, for layers outside this
// package (the TNet feature gate): the same register-blocked products,
// the same per-element term order, and the same zero-skip definition as
// Dense, so a layer built on them inherits the bit-identity contract.

// MatMulAdd accumulates c += a·b: c[r][j] += Σ_t a[r][t]·b[t*n+j] for
// n = c.Cols(), with t ascending and one rounded multiply and one rounded
// add per term. b is a.Cols() × c.Cols(), row-major. With skipZeros the
// result is DEFINED as if every term with a[r][t] == 0 were skipped; the
// tile kernel still runs whenever that is provably bit-neutral (see
// skipExact), and the skipping loop runs otherwise.
func MatMulAdd(c, a *Tensor, b []float64, skipZeros bool) {
	if c.rows != a.rows {
		panic("nn: MatMulAdd: row count mismatch")
	}
	m, n, k := c.rows, c.cols, a.cols
	b = b[:k*n]
	if skipZeros && !skipExact(a.data, c.data, b) {
		for r := 0; r < m; r++ {
			cr := c.Row(r)
			for t, v := range a.Row(r) {
				if v != 0 {
					axpy1(v, b[t*n:(t+1)*n], cr)
				}
			}
		}
		return
	}
	gemmAcc(c.data, n, a.data, k, 1, b, n, m, n, k)
}

// MatMulAddTN accumulates c += aᵀ·b, the weight-gradient form:
// c[r*n+j] += Σ_t a[t][r]·b[t][j] for r < a.Cols(), j < n = b.Cols(),
// with the rows t ascending. c is a.Cols() × b.Cols(), row-major. The
// skipZeros definition is MatMulAdd's, on the elements of a.
func MatMulAddTN(c []float64, a, b *Tensor, skipZeros bool) {
	if a.rows != b.rows {
		panic("nn: MatMulAddTN: row count mismatch")
	}
	m, n, k := a.cols, b.cols, a.rows
	c = c[:m*n]
	if skipZeros && !skipExact(a.data, c, b.data) {
		for t := 0; t < k; t++ {
			bt := b.Row(t)
			for r, v := range a.Row(t) {
				if v != 0 {
					axpy1(v, bt, c[r*n:(r+1)*n])
				}
			}
		}
		return
	}
	gemmAcc(c, n, a.data, 1, m, b.data, n, m, n, k)
}

// skipExact reports whether adding the zero-skipped terms too leaves
// every bit of c += a·b unchanged: trivially so when a holds no zero;
// otherwise when c holds no −0 (an IEEE sum is −0 only when both addends
// are, so the accumulators never become −0) and b is finite (so every
// skipped term 0·b is ±0, which leaves a non-(−0) accumulator as it is).
func skipExact(a, c, b []float64) bool {
	return zeroFree(a) || (negZeroFree(c) && allFinite(b))
}
