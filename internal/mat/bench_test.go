package mat

import (
	"fmt"
	"runtime"
	"testing"
)

// Benchmarks for the parallel matrix kernels. Compare seq vs par with:
//
//	go test -bench 'Mul|Covariance' -benchtime 1x ./internal/mat
func BenchmarkMul(b *testing.B) {
	for _, size := range []int{64, 256} {
		a := seededMatrix(size, size, 1)
		c := seededMatrix(size, size, 2)
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", size, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := MulWorkers(a, c, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkCovariance(b *testing.B) {
	for _, tc := range []struct{ n, d int }{{2000, 64}, {5000, 128}} {
		x := seededMatrix(tc.n, tc.d, 3)
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("n=%d_d=%d/workers=%d", tc.n, tc.d, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := CovarianceWorkers(x, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDecomp times the CMT/CORAL-sized (442×442) inverse and
// Cholesky factorization.
func BenchmarkDecomp(b *testing.B) {
	const n = 442
	x := seededMatrix(n+8, n, 4)
	cov, err := Covariance(x)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("InverseInto", func(b *testing.B) {
		var ident, aw, bw, inv Matrix
		for i := 0; i < b.N; i++ {
			if _, err := InverseInto(cov, &ident, &aw, &bw, &inv); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Cholesky", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Cholesky(cov); err != nil {
				b.Fatal(err)
			}
		}
	})
}
