package backoff

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestJitteredSchedule pins the capped doubling, the jitter envelope and
// the one-draw-per-call use of the rng stream.
func TestJitteredSchedule(t *testing.T) {
	const base, limit = 100 * time.Millisecond, 30 * time.Second
	rng := rand.New(rand.NewSource(1))
	twin := rand.New(rand.NewSource(1))
	for n := 1; n <= 70; n++ {
		want := limit
		if n <= 10 {
			want = min(base<<(n-1), limit)
		}
		got := Jittered(base, limit, n, rng)
		if exact := time.Duration(float64(want) * (0.5 + twin.Float64())); got != exact {
			t.Fatalf("n=%d: %v, want %v", n, got, exact)
		}
		if got < want/2 || got >= want+want/2 {
			t.Fatalf("n=%d: %v outside [%v, %v)", n, got, want/2, want+want/2)
		}
	}
	// A cap near the top of the range doubles without overflowing.
	huge := time.Duration(math.MaxInt64)
	if got := Jittered(time.Second, huge, 80, rand.New(rand.NewSource(2))); got <= 0 {
		t.Fatalf("uncapped schedule overflowed to %v", got)
	}
}
