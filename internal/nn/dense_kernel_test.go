package nn

import (
	"math/rand"
	"testing"
)

// TestAxpyKernelsMatchPortable pins the dispatched axpy kernel (AVX when
// the host supports it) against the portable Go implementation bit for
// bit, across vector-width tails and negative/zero/subnormal-ish values.
func TestAxpyKernelsMatchPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fill := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			switch rng.Intn(8) {
			case 0:
				s[i] = 0
			case 1:
				s[i] = 1e-300 * rng.NormFloat64()
			default:
				s[i] = rng.NormFloat64()
			}
		}
		return s
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 50, 256, 678} {
		w := fill(n)
		base := fill(n)
		v := rng.NormFloat64()

		g1 := append([]float64(nil), base...)
		w1 := append([]float64(nil), base...)
		axpy1(v, w, g1)
		axpy1Go(v, w, w1)
		for k := range g1 {
			if g1[k] != w1[k] {
				t.Fatalf("axpy1 n=%d col=%d: %v != %v", n, k, g1[k], w1[k])
			}
		}
	}
}
