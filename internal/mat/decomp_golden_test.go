package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file keeps the element-wise (At/Set) Gaussian elimination and
// Cholesky factorization as test-only references. The row-slice kernels
// must reproduce them bit for bit, errors included.

func refSolve(a, b *Matrix) (*Matrix, error) {
	n := a.rows
	aw, bw := a.Clone(), b.Clone()
	for col := 0; col < n; col++ {
		pivot := col
		maxAbs := math.Abs(aw.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(aw.At(r, col)); v > maxAbs {
				maxAbs = v
				pivot = r
			}
		}
		if maxAbs < 1e-12 {
			return nil, fmt.Errorf("%w: pivot %d", ErrSingular, col)
		}
		if pivot != col {
			swapRows(aw, pivot, col)
			swapRows(bw, pivot, col)
		}
		pivVal := aw.At(col, col)
		for r := col + 1; r < n; r++ {
			factor := aw.At(r, col) / pivVal
			if factor == 0 {
				continue
			}
			for c := col; c < n; c++ {
				aw.Set(r, c, aw.At(r, c)-factor*aw.At(col, c))
			}
			for c := 0; c < bw.cols; c++ {
				bw.Set(r, c, bw.At(r, c)-factor*bw.At(col, c))
			}
		}
	}
	x := New(n, bw.cols)
	for c := 0; c < bw.cols; c++ {
		for r := n - 1; r >= 0; r-- {
			s := bw.At(r, c)
			for k := r + 1; k < n; k++ {
				s -= aw.At(r, k) * x.At(k, c)
			}
			x.Set(r, c, s/aw.At(r, r))
		}
	}
	return x, nil
}

func refCholesky(a *Matrix) (*Matrix, error) {
	n := a.rows
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			for k := 0; k < j; k++ {
				s += l.At(i, k) * l.At(j, k)
			}
			if i == j {
				d := a.At(i, i) - s
				if d <= 0 {
					return nil, fmt.Errorf("%w: leading minor %d", ErrNotPD, i)
				}
				l.Set(i, j, math.Sqrt(d))
			} else {
				l.Set(i, j, (a.At(i, j)-s)/l.At(j, j))
			}
		}
	}
	return l, nil
}

func sameBits(got, want *Matrix) error {
	if got.rows != want.rows || got.cols != want.cols {
		return fmt.Errorf("%dx%d, want %dx%d", got.rows, got.cols, want.rows, want.cols)
	}
	for i := range want.data {
		if math.Float64bits(got.data[i]) != math.Float64bits(want.data[i]) {
			return fmt.Errorf("element %d = %v, want %v", i, got.data[i], want.data[i])
		}
	}
	return nil
}

// TestDecompMatchesReference pins SolveInto, InverseInto and Cholesky to
// the element-wise references: general matrices that pivot on most
// columns, multiple right-hand sides, zero factors, covariance-shaped
// positive-definite matrices, and the singular and not-positive-definite
// errors.
func TestDecompMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var aw, bw, x, ident Matrix
	for _, n := range []int{1, 2, 5, 17, 64, 3} {
		// A plain Gaussian matrix pivots on most columns; the zeroed
		// entries give zero elimination factors.
		a := randMatrix(rng, n, n)
		for i := 1; i < n; i += 3 {
			a.Set(i, 0, 0)
		}
		for _, cols := range []int{1, 3, n} {
			b := randMatrix(rng, n, cols)
			want, werr := refSolve(a, b)
			got, err := SolveInto(a, b, &aw, &bw, &x)
			if (err == nil) != (werr == nil) {
				t.Fatalf("n=%d cols=%d: err %v, want %v", n, cols, err, werr)
			}
			if err == nil {
				if e := sameBits(got, want); e != nil {
					t.Fatalf("n=%d cols=%d: solve %v", n, cols, e)
				}
			}
		}
		want, _ := refSolve(a, Identity(n))
		got, err := InverseInto(a, &ident, &aw, &bw, &x)
		if err != nil {
			t.Fatal(err)
		}
		if e := sameBits(got, want); e != nil {
			t.Fatalf("n=%d: inverse %v", n, e)
		}

		// Covariance of a few more rows than columns: positive definite.
		c, err := Covariance(randMatrix(rng, n+4, n))
		if err != nil {
			t.Fatal(err)
		}
		wl, werr := refCholesky(c)
		gl, err := Cholesky(c)
		if werr != nil || err != nil {
			t.Fatalf("n=%d: cholesky err %v, reference %v", n, err, werr)
		}
		if e := sameBits(gl, wl); e != nil {
			t.Fatalf("n=%d: cholesky %v", n, e)
		}
	}

	// Singular: a repeated row fails at the same pivot with the same error.
	a := randMatrix(rng, 6, 6)
	copy(a.RowView(4), a.RowView(1))
	_, werr := refSolve(a, Identity(6))
	_, err := Solve(a, Identity(6))
	if !errors.Is(err, ErrSingular) || err.Error() != werr.Error() {
		t.Fatalf("singular: err %v, want %v", err, werr)
	}

	// Not positive definite: a negative diagonal entry fails at the same
	// leading minor.
	c, _ := Covariance(randMatrix(rng, 12, 6))
	c.Set(3, 3, -1)
	_, werr = refCholesky(c)
	_, err = Cholesky(c)
	if !errors.Is(err, ErrNotPD) || err.Error() != werr.Error() {
		t.Fatalf("not PD: err %v, want %v", err, werr)
	}
}
