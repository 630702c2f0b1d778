package ctrl

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"netdrift/internal/backoff"
)

// RetryConfig bounds one retried controller operation (refit, promote,
// rollback). Zero values select the documented defaults.
type RetryConfig struct {
	// MaxAttempts is the total tries before giving up (default 3).
	MaxAttempts int
	// BaseBackoff is the first inter-attempt wait; it doubles per failure
	// and is jittered to 50–150% (default 100ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the doubling (default 5s).
	MaxBackoff time.Duration
	// AttemptTimeout bounds each attempt; an attempt that outlives it
	// counts as failed and the next one starts (default 0 = unbounded).
	// The attempt's goroutine keeps running until its work returns — a
	// refit cannot be preempted mid-kernel — so RefitFuncs should honor
	// ctx where they can.
	AttemptTimeout time.Duration
}

func (c RetryConfig) withDefaults() RetryConfig {
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 3
	}
	if c.BaseBackoff == 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = 5 * time.Second
	}
	return c
}

// backoff returns the jittered wait before attempt n+1 (n is the number of
// failures so far, 1-based).
func (c RetryConfig) backoff(n int, rng *rand.Rand) time.Duration {
	return backoff.Jittered(c.BaseBackoff, c.MaxBackoff, n, rng)
}

// errAttemptTimeout marks an attempt abandoned by AttemptTimeout.
var errAttemptTimeout = fmt.Errorf("ctrl: attempt timed out")

// runAttempt executes one attempt with panic containment (a chaos site
// inside attempt may panic) and the per-attempt timeout. On timeout the
// attempt goroutine is left to finish in the background; its late result is
// discarded.
func runAttempt(parent context.Context, timeout time.Duration, attempt func(ctx context.Context) error) error {
	ctx := parent
	cancel := context.CancelFunc(func() {})
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(parent, timeout)
	}
	defer cancel()
	done := make(chan error, 1)
	go func() {
		defer func() {
			if rec := recover(); rec != nil {
				done <- fmt.Errorf("ctrl: attempt panic: %v", rec)
			}
		}()
		done <- attempt(ctx)
	}()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		if parent.Err() != nil {
			return parent.Err()
		}
		return fmt.Errorf("%w after %s", errAttemptTimeout, timeout)
	}
}

// retryDo runs attempt under the retry policy: up to MaxAttempts tries,
// jittered exponential backoff between them, each bounded by
// AttemptTimeout. onRetry (may be nil) observes each failure that will be
// retried. Returns nil on the first success, the last error otherwise, and
// ctx.Err() as soon as the parent context dies.
func retryDo(ctx context.Context, cfg RetryConfig, rng *rand.Rand,
	attempt func(ctx context.Context) error,
	onRetry func(n int, err error, wait time.Duration)) error {
	var lastErr error
	for n := 1; n <= cfg.MaxAttempts; n++ {
		lastErr = runAttempt(ctx, cfg.AttemptTimeout, attempt)
		if lastErr == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if n == cfg.MaxAttempts {
			break
		}
		wait := cfg.backoff(n, rng)
		if onRetry != nil {
			onRetry(n, lastErr, wait)
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return lastErr
}
