// Package backoff holds the jittered exponential backoff shared by the
// serving circuit breaker (open intervals) and the drift controller's retry
// policy (waits between attempts). One copy keeps their schedules and their
// use of the jitter stream identical by construction.
package backoff

import (
	"math/rand"
	"time"
)

// Jittered returns the n-th (1-based) wait of an exponential schedule:
// base·2^(n−1), capped at limit, scaled by a jitter factor in [0.5, 1.5)
// drawn with exactly one rng.Float64 call. The doubling stops at the cap,
// so it never overflows.
func Jittered(base, limit time.Duration, n int, rng *rand.Rand) time.Duration {
	d := base
	for i := 1; i < n && d < limit; i++ {
		if d > limit/2 {
			d = limit
			break
		}
		d *= 2
	}
	if d > limit {
		d = limit
	}
	return time.Duration(float64(d) * (0.5 + rng.Float64()))
}
