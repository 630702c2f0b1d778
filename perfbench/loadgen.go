package main

import (
	"bytes"
	"hash"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"netdrift/internal/obs"
	"netdrift/internal/serve"
)

// stack is the serving stack driftserve builds with its default flags:
// registry with a load breaker, coalescer (MaxBatch 32, MaxWait 2ms, one
// executor, admission bound 4096 rows), HTTP handler with SLO tracking and
// an armed flight recorder. traced attaches an in-memory span sink.
type stack struct {
	o    *obs.Observer
	reg  *serve.Registry
	co   *serve.Coalescer
	srv  *serve.Server
	sink *memSink
}

// stackOptions are the driftserve flag values the stack differs by.
type stackOptions struct {
	traced            bool
	breakerBackoff    time.Duration
	breakerMaxBackoff time.Duration
	seed              int64
}

func newStack(opt stackOptions) *stack {
	o := obs.New()
	o.Flight = obs.NewFlightRecorder(obs.DefaultFlightCapacity)
	o.Flight.CountEvents(o.Registry.Counter(obs.MetricFlightEvents))
	var sink *memSink
	if opt.traced {
		sink = &memSink{}
		o.Spans = o.Flight.SpanSink(sink)
	}
	if opt.breakerBackoff == 0 {
		opt.breakerBackoff = 100 * time.Millisecond
	}
	if opt.breakerMaxBackoff == 0 {
		opt.breakerMaxBackoff = 30 * time.Second
	}
	breaker := serve.BreakerConfig{
		FailThreshold: 3,
		BaseBackoff:   opt.breakerBackoff,
		MaxBackoff:    opt.breakerMaxBackoff,
		Seed:          opt.seed,
	}
	reg := serve.NewRegistry(o)
	reg.SetBreaker(serve.NewBreaker("bundle_load", breaker, o))
	co := serve.NewCoalescer(reg, serve.Options{Breaker: breaker, Obs: o})
	srv := serve.NewServer(reg, co, o)
	srv.ConfigureSLO(obs.SLO{LatencyObjective: 0.25, Availability: 0.999})
	return &stack{o: o, reg: reg, co: co, srv: srv, sink: sink}
}

// close drains the coalescer; every request it accepted is answered.
func (s *stack) close() { s.co.Close() }

// answer is what the benchmark keeps of one response: the status, the
// degraded marker and a hash of the body (compared byte for byte with the
// expected response through its hash).
type answer struct {
	code     int
	degraded bool
	hash     uint64
}

// recorder is a reusable http.ResponseWriter that hashes the body as it is
// written instead of buffering it, so the load generator adds little
// garbage to the process it measures.
type recorder struct {
	hdr  http.Header
	code int
	h    hash.Hash64
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.h.Write(p)
}

var recorders = sync.Pool{New: func() any {
	return &recorder{hdr: http.Header{}, h: fnv.New64a()}
}}

// post sends one request through the server's handler in-process (no
// sockets).
func (s *stack) post(path, contentType string, body []byte) answer {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := recorders.Get().(*recorder)
	clear(rec.hdr)
	rec.code = 0
	rec.h.Reset()
	s.srv.ServeHTTP(rec, req)
	rec.WriteHeader(http.StatusOK)
	a := answer{code: rec.code, degraded: rec.hdr.Get(serve.DegradedHeader) != "", hash: rec.h.Sum64()}
	recorders.Put(rec)
	return a
}

// loadStats are an open-loop stream's timings: latency from each
// request's scheduled send time to its answer, and how late the generator
// dispatched each request.
type loadStats struct {
	latencyMS []float64
	lateMS    []float64
	sent      int
	failed    int
}

// openLoop sends request i at the i-th arrival of a schedule — gap(rng)
// is the time to the next arrival — until stop is closed or limit
// requests were sent (limit <= 0: no limit). Each request runs on its own
// goroutine, so a slow answer never delays later sends; openLoop waits for
// every answer before it returns. send reports whether the answer was
// correct; a wrong answer counts as failed.
func openLoop(stop <-chan struct{}, limit int, gap func() time.Duration, send func(i int) bool) loadStats {
	var (
		mu  sync.Mutex
		st  loadStats
		wg  sync.WaitGroup
		due = time.Now()
	)
	for i := 0; limit <= 0 || i < limit; i++ {
		if i > 0 {
			due = due.Add(gap())
		}
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-stop:
				t.Stop()
				wg.Wait()
				return st
			case <-t.C:
			}
		} else {
			select {
			case <-stop:
				wg.Wait()
				return st
			default:
			}
		}
		late := time.Since(due)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			ok := send(i)
			lat := time.Since(due)
			mu.Lock()
			st.sent++
			st.lateMS = append(st.lateMS, ms(late))
			if ok {
				st.latencyMS = append(st.latencyMS, ms(lat))
			} else {
				st.failed++
			}
			mu.Unlock()
		}(i, due)
	}
	wg.Wait()
	return st
}

// poissonGap returns exponential inter-arrival times for rate per second.
func poissonGap(rng *rand.Rand, rate float64) func() time.Duration {
	return func() time.Duration {
		return time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
	}
}

// fixedGap returns a constant inter-arrival time.
func fixedGap(d time.Duration) func() time.Duration {
	return func() time.Duration { return d }
}

// Generator lateness limits (p99). Latencies are timed from each
// request's due time, so a late generator never flatters them; past these
// limits the offered load no longer follows the schedule and the run is
// invalid. The serve-adapt limit is about twice that stream's latency p99;
// the drift-loop background stream shares two cores with training, so its
// limit is the stack's SLO latency objective.
const (
	serveLateLimitMS = 20.0
	driftLateLimitMS = 250.0
)

// checkLate returns the generator's p99 lateness and marks the run invalid
// when it exceeds limitMS.
func checkLate(rep *report, st loadStats, what string, limitMS float64) float64 {
	late := orZero(quantile(st.lateMS, 0.99))
	if late > limitMS {
		rep.markInvalid("%s: generator p99 lateness %.2f ms exceeds %.1f ms", what, late, limitMS)
	}
	return late
}
