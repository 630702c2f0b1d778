// Package fault is a deterministic, seed-driven fault injector for chaos
// testing the serving stack. Call sites name injection points ("sites");
// a test or chaos run arms sites with error, panic, and latency rates,
// and every Fire draws from a per-site PRNG derived from (seed, site
// name) alone — so a chaos run replays bit-identically for a given seed
// and per-site call sequence, regardless of how unrelated sites
// interleave. A nil *Injector (the production default) makes Fire a
// single nil check.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"netdrift/internal/splitmix"
)

// ErrInjected is the sentinel wrapped by every injected error, so
// recovery paths and tests can tell chaos from genuine failures.
var ErrInjected = errors.New("fault: injected error")

// Panic is the value thrown by an injected panic. Recovery sites that
// want to treat chaos panics like real ones simply don't special-case it;
// the chaos suite asserts on the type to prove the panic travelled
// through the recovery machinery.
type Panic struct{ Site string }

func (p Panic) String() string { return "fault: injected panic at " + p.Site }

// Spec arms one site. Rates are probabilities in [0,1], drawn
// independently per Fire in the fixed order slow → error → panic (every
// Fire consumes exactly three PRNG draws so sequences stay aligned even
// as rates change).
type Spec struct {
	ErrRate   float64       // probability Fire returns an ErrInjected-wrapped error
	PanicRate float64       // probability Fire panics with a Panic value
	SlowRate  float64       // probability Fire sleeps SlowFor before deciding
	SlowFor   time.Duration // injected latency when the slow draw hits
}

func (s Spec) enabled() bool { return s.ErrRate > 0 || s.PanicRate > 0 || s.SlowRate > 0 }

// Stats counts what one site actually injected.
type Stats struct {
	Fires  int64 // Fire calls against an armed site
	Slows  int64 // latency injections
	Errs   int64 // injected errors
	Panics int64 // injected panics
}

type site struct {
	mu    sync.Mutex
	spec  Spec
	rng   *rand.Rand
	stats Stats
}

// Hook observes injections as they fire: kind is "slow", "err", or
// "panic". Hooks run on the injecting goroutine, after the draw but before
// the fault takes effect (so a panic injection is observable even though
// Fire never returns from it) — keep them fast and non-blocking. The
// serving stack wires this to the flight recorder.
type Hook func(site, kind string)

// Injector holds the armed sites. The zero of *Injector (nil) is the
// production no-op; construct one with New only for chaos runs.
type Injector struct {
	seed  int64
	sleep func(time.Duration) // injectable so latency tests don't wall-clock

	mu    sync.Mutex
	sites map[string]*site
	hook  Hook
}

// New returns an injector with no sites armed. seed scopes every
// per-site PRNG: the same seed and per-site call sequence reproduce the
// same faults.
func New(seed int64) *Injector {
	return &Injector{seed: seed, sleep: time.Sleep, sites: make(map[string]*site)}
}

// siteSeed mixes the injector seed with the site name through a
// splitmix64 finalizer so each site gets a decorrelated stream that
// depends only on (seed, name) — never on arming order.
func siteSeed(seed int64, name string) int64 {
	z := uint64(seed)
	for _, c := range []byte(name) {
		z = (z ^ uint64(c)) * splitmix.Gamma
	}
	return int64(splitmix.Mix(z))
}

// Set arms (or re-arms) a site. A zero Spec disarms it but keeps its
// stats and PRNG state.
func (f *Injector) Set(name string, spec Spec) {
	if f == nil {
		return
	}
	f.mu.Lock()
	s := f.sites[name]
	if s == nil {
		s = &site{rng: rand.New(rand.NewSource(siteSeed(f.seed, name)))}
		f.sites[name] = s
	}
	f.mu.Unlock()
	s.mu.Lock()
	s.spec = spec
	s.mu.Unlock()
}

// Clear disarms every site (stats survive) — "faults stop" in a chaos
// run, after which the serving path must recover.
func (f *Injector) Clear() {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.sites {
		s.mu.Lock()
		s.spec = Spec{}
		s.mu.Unlock()
	}
}

// SetHook installs (or, with nil, removes) the injection observer.
func (f *Injector) SetHook(h Hook) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.hook = h
	f.mu.Unlock()
}

// Fire runs the site's armed faults: maybe sleep, maybe return an error,
// maybe panic (in that order). Unarmed sites and nil injectors cost one
// branch and consume no randomness.
func (f *Injector) Fire(name string) error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	s := f.sites[name]
	hook := f.hook
	f.mu.Unlock()
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if !s.spec.enabled() {
		s.mu.Unlock()
		return nil
	}
	spec := s.spec
	slow := s.rng.Float64() < spec.SlowRate
	fail := s.rng.Float64() < spec.ErrRate
	pan := s.rng.Float64() < spec.PanicRate
	s.stats.Fires++
	if slow {
		s.stats.Slows++
	}
	if fail {
		s.stats.Errs++
	}
	if pan {
		s.stats.Panics++
	}
	s.mu.Unlock()
	if hook != nil {
		if slow {
			hook(name, "slow")
		}
		if fail {
			hook(name, "err")
		}
		if pan {
			hook(name, "panic")
		}
	}
	if slow {
		f.sleep(spec.SlowFor)
	}
	if pan {
		panic(Panic{Site: name})
	}
	if fail {
		return fmt.Errorf("%w at %s", ErrInjected, name)
	}
	return nil
}

// Stats returns one site's injection counts (zero for unknown sites).
func (f *Injector) Stats(name string) Stats {
	if f == nil {
		return Stats{}
	}
	f.mu.Lock()
	s := f.sites[name]
	f.mu.Unlock()
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Summary renders per-site injection counts, sites sorted by name — the
// chaos verdict line's fault half.
func (f *Injector) Summary() string {
	if f == nil {
		return "faults: none"
	}
	f.mu.Lock()
	names := make([]string, 0, len(f.sites))
	for name := range f.sites {
		names = append(names, name)
	}
	f.mu.Unlock()
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("faults:")
	if len(names) == 0 {
		b.WriteString(" none")
	}
	for _, name := range names {
		st := f.Stats(name)
		fmt.Fprintf(&b, " %s[fires=%d slow=%d err=%d panic=%d]",
			name, st.Fires, st.Slows, st.Errs, st.Panics)
	}
	return b.String()
}

// ParsePlan decodes the CLI fault-plan syntax:
//
//	site:err=0.3,panic=0.05,slow=5ms@0.5;othersite:err=1
//
// Each site lists comma-separated faults; `slow` takes a duration and an
// optional @rate (default 1). An empty string is an empty plan.
func ParsePlan(s string) (map[string]Spec, error) {
	plan := make(map[string]Spec)
	if strings.TrimSpace(s) == "" {
		return plan, nil
	}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, faults, ok := strings.Cut(part, ":")
		if !ok || strings.TrimSpace(name) == "" {
			return nil, fmt.Errorf("fault: plan entry %q: want site:faults", part)
		}
		var spec Spec
		for _, fdef := range strings.Split(faults, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(fdef), "=")
			if !ok {
				return nil, fmt.Errorf("fault: site %q: fault %q: want key=value", name, fdef)
			}
			switch key {
			case "err", "panic":
				rate, err := strconv.ParseFloat(val, 64)
				if err != nil || rate < 0 || rate > 1 {
					return nil, fmt.Errorf("fault: site %q: %s rate %q: want a probability in [0,1]", name, key, val)
				}
				if key == "err" {
					spec.ErrRate = rate
				} else {
					spec.PanicRate = rate
				}
			case "slow":
				durStr, rateStr, hasRate := strings.Cut(val, "@")
				dur, err := time.ParseDuration(durStr)
				if err != nil || dur < 0 {
					return nil, fmt.Errorf("fault: site %q: slow duration %q: %v", name, durStr, err)
				}
				rate := 1.0
				if hasRate {
					rate, err = strconv.ParseFloat(rateStr, 64)
					if err != nil || rate < 0 || rate > 1 {
						return nil, fmt.Errorf("fault: site %q: slow rate %q: want a probability in [0,1]", name, rateStr)
					}
				}
				spec.SlowFor, spec.SlowRate = dur, rate
			default:
				return nil, fmt.Errorf("fault: site %q: unknown fault %q (want err, panic, or slow)", name, key)
			}
		}
		plan[strings.TrimSpace(name)] = spec
	}
	return plan, nil
}

// Load arms every site in a parsed plan.
func (f *Injector) Load(plan map[string]Spec) {
	if f == nil {
		return
	}
	for name, spec := range plan {
		f.Set(name, spec)
	}
}
