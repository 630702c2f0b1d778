package serve

import (
	"math/rand"
	"sync"
	"time"

	"netdrift/internal/backoff"
	"netdrift/internal/obs"
)

// Breaker states as reported by Status and the transition counter.
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

// BreakerConfig tunes a circuit breaker. Zero values select the defaults.
type BreakerConfig struct {
	// FailThreshold is the number of consecutive failures (while closed)
	// that trips the breaker open. Default 3.
	FailThreshold int
	// BaseBackoff is the first open interval; consecutive trips double it
	// up to MaxBackoff. Defaults 100ms / 30s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed drives the backoff jitter PRNG so chaos runs are reproducible.
	// Default 1.
	Seed int64
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 30 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Breaker is a three-state circuit breaker guarding a fallible dependency
// (bundle loading, batch execution). Closed passes everything through;
// FailThreshold consecutive failures trip it open, which fails fast for a
// jittered exponential backoff; the first Allow after the backoff elapses
// becomes the half-open probe — its Success closes the breaker, its Fail
// re-opens with a doubled interval. A nil *Breaker always allows.
type Breaker struct {
	name string
	cfg  BreakerConfig
	o    *obs.Observer
	now  func() time.Time // injectable clock for tests

	mu        sync.Mutex
	state     string
	fails     int // consecutive failures while closed
	trips     int // consecutive trips without a Success; backoff exponent
	openUntil time.Time
	probing   bool // a half-open probe is in flight
	rng       *rand.Rand
}

// NewBreaker builds a closed breaker. name labels its metrics; o may be
// nil.
func NewBreaker(name string, cfg BreakerConfig, o *obs.Observer) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{
		name:  name,
		cfg:   cfg,
		o:     o,
		now:   time.Now,
		state: BreakerClosed,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

// transition must be called with mu held. Both the counter and the flight
// event are lock-free, so recording under mu is safe.
func (b *Breaker) transition(to string) {
	if b.state == to {
		return
	}
	b.state = to
	b.o.Counter(obs.MetricServeBreakerTransitions, "breaker", b.name, "to", to).Inc()
	b.o.FlightRecord(obs.FlightKindBreaker, b.name, "", to)
}

// Allow reports whether the protected operation may run now. While open
// it fails fast until the backoff deadline, then admits exactly one
// half-open probe at a time; the probe's Success or Fail decides what
// happens to everyone else.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Before(b.openUntil) {
			return false
		}
		b.transition(BreakerHalfOpen)
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success records a completed operation: any state snaps back to closed
// and the failure/backoff history resets.
func (b *Breaker) Success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails, b.trips, b.probing = 0, 0, false
	b.transition(BreakerClosed)
}

// Fail records a failed operation. A closed breaker trips after
// FailThreshold consecutive failures; a half-open probe failure re-opens
// immediately with a doubled (capped, jittered) backoff.
func (b *Breaker) Fail() {
	if b == nil {
		return
	}
	b.mu.Lock()
	switch b.state {
	case BreakerClosed:
		b.fails++
		if b.fails < b.cfg.FailThreshold {
			b.mu.Unlock()
			return
		}
	case BreakerOpen:
		b.mu.Unlock()
		return // already open; late failures from in-flight work are moot
	}
	// Trip: exponential backoff with multiplicative jitter in [0.5, 1.5).
	b.trips++
	b.openUntil = b.now().Add(backoff.Jittered(b.cfg.BaseBackoff, b.cfg.MaxBackoff, b.trips, b.rng))
	b.fails, b.probing = 0, false
	b.transition(BreakerOpen)
	b.mu.Unlock()
	// A breaker opening is an incident: dump the flight ring (file write,
	// so outside mu) to preserve the failure sequence that tripped it.
	b.o.FlightSnapshot("breaker-open-" + b.name)
}

// BreakerStatus is the health-endpoint snapshot of one breaker.
type BreakerStatus struct {
	State            string `json:"state"`
	ConsecutiveFails int    `json:"consecutive_fails,omitempty"`
	RetryIn          string `json:"retry_in,omitempty"` // open only: time until the next probe window
}

// Status snapshots the breaker for /healthz. A nil breaker reads closed.
func (b *Breaker) Status() BreakerStatus {
	if b == nil {
		return BreakerStatus{State: BreakerClosed}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BreakerStatus{State: b.state, ConsecutiveFails: b.fails}
	if b.state == BreakerOpen {
		if wait := b.openUntil.Sub(b.now()); wait > 0 {
			st.RetryIn = wait.Round(time.Millisecond).String()
		}
	}
	return st
}
