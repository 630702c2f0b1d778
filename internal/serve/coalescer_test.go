package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netdrift/internal/fault"
	"netdrift/internal/obs"
)

// Edge-case coverage for the coalescer: lone-request dispatch, coalescing
// behind a busy executor, a second executor serving past a held one,
// overflow splitting, queued-request cancellation, shutdown draining.

// execGate holds the first batch to reach FaultSiteExec inside the
// executor until release is closed, so a test can keep an executor busy
// deterministically. Later batches pass straight through.
type execGate struct {
	inj     *fault.Injector
	holds   atomic.Int32
	entered chan struct{}
	release chan struct{}
}

func newExecGate() *execGate {
	g := &execGate{inj: fault.New(1), entered: make(chan struct{}, 1), release: make(chan struct{})}
	g.holds.Store(1)
	// A certain slow draw of zero length: Fire runs the hook and injects
	// nothing else.
	g.inj.Set(FaultSiteExec, fault.Spec{SlowRate: 1})
	g.inj.SetHook(func(site, kind string) {
		if g.holds.Add(-1) >= 0 {
			g.entered <- struct{}{}
			<-g.release
		}
	})
	return g
}

// hold submits rows and returns once their batch is held in the executor;
// the returned channel yields the request's outcome after release.
func (g *execGate) hold(t *testing.T, co *Coalescer, rows [][]float64, seed int64) <-chan reqOutcome {
	t.Helper()
	out := make(chan reqOutcome, 1)
	go func() {
		res, err := co.Submit(context.Background(), rows, seed, false)
		out <- reqOutcome{res: res, err: err}
	}()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the held request never reached the executor")
	}
	return out
}

// waitFor polls cond until it holds (fatal after a generous deadline).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCoalescerServesLoneRequestAtOnce(t *testing.T) {
	a, _, rows := fixtures(t)
	reg := NewRegistry(nil)
	reg.Swap(a)
	// Batch cap far above the request size: the request never fills a
	// group, and there is no timer to flush one, so only an idle executor
	// taking it at once can serve it.
	co := NewCoalescer(reg, Options{MaxBatch: 1 << 20})
	defer co.Close()

	start := time.Now()
	res, err := co.Submit(context.Background(), rows[:3], 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("lone request took %v; the idle executor did not take it", elapsed)
	}
	if !sameRows(res.Rows, adaptWith(t, a, rows[:3], 0)) {
		t.Error("lone request served wrong rows")
	}
}

func TestCoalescerCoalescesBehindBusyExecutor(t *testing.T) {
	a, _, rows := fixtures(t)
	o := obs.New()
	reg := NewRegistry(o)
	reg.Swap(a)
	g := newExecGate()
	const maxBatch = 8
	co := NewCoalescer(reg, Options{MaxBatch: maxBatch, Workers: 1, Faults: g.inj, Obs: o})
	defer co.Close()

	held := g.hold(t, co, rows[:1], 0)
	// Three 2-row requests arrive while the only executor is busy. Each
	// sits in the queue once enqueue returns, and the dispatcher has read
	// all of them into its pending group once the queue is empty.
	const n = 3
	reqs := make([]*request, n)
	for i := range reqs {
		req, err := co.enqueue(context.Background(), rows[2+2*i:4+2*i], int64(i+1), false, nil)
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = req
	}
	waitFor(t, "the dispatcher to read every queued request", func() bool { return len(co.reqCh) == 0 })
	close(g.release)

	if out := <-held; out.err != nil || !sameRows(out.res.Rows, adaptWith(t, a, rows[:1], 0)) {
		t.Fatalf("held request after release: err=%v", out.err)
	}
	for i, req := range reqs {
		out := <-req.done
		if out.err != nil {
			t.Fatalf("coalesced request %d: %v", i, out.err)
		}
		if !sameRows(out.res.Rows, adaptWith(t, a, rows[2+2*i:4+2*i], int64(i+1))) {
			t.Errorf("coalesced request %d rows differ from the unbatched reference", i)
		}
	}
	// Two executed batches: the held request's, then one group of all
	// three arrivals (6 rows, within MaxBatch).
	if got, _ := o.Registry.Value(obs.MetricServeBatches); got != 2 {
		t.Errorf("batches = %v, want 2 (held request + one coalesced group)", got)
	}
	sizeHist := o.Registry.FixedHistogram(obs.MetricServeBatchSize, obs.BatchSizeBuckets)
	if maxSeen := sizeHist.Quantile(1); maxSeen > maxBatch {
		t.Errorf("largest executed batch ≈ %v rows, exceeds MaxBatch %d", maxSeen, maxBatch)
	}
}

func TestCoalescerSecondExecutorServesPastHeldOne(t *testing.T) {
	a, _, rows := fixtures(t)
	reg := NewRegistry(nil)
	reg.Swap(a)
	g := newExecGate()
	co := NewCoalescer(reg, Options{MaxBatch: 1 << 20, Workers: 2, Faults: g.inj})
	defer co.Close()

	held := g.hold(t, co, rows[:2], 0)
	// One executor is held; the other is idle and must take a new request
	// at once rather than leave it queued behind the busy one.
	done := make(chan reqOutcome, 1)
	go func() {
		res, err := co.Submit(context.Background(), rows[4:7], 3, false)
		done <- reqOutcome{res: res, err: err}
	}()
	select {
	case out := <-done:
		if out.err != nil {
			t.Fatal(out.err)
		}
		if !sameRows(out.res.Rows, adaptWith(t, a, rows[4:7], 3)) {
			t.Error("request served by the second executor has wrong rows")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request stranded behind the held executor while the other was idle")
	}
	close(g.release)
	if out := <-held; out.err != nil || !sameRows(out.res.Rows, adaptWith(t, a, rows[:2], 0)) {
		t.Fatalf("held request after release: err=%v", out.err)
	}
}

func TestCoalescerOverflowSplitting(t *testing.T) {
	a, _, rows := fixtures(t)
	o := obs.New()
	reg := NewRegistry(o)
	reg.Swap(a)
	co := NewCoalescer(reg, Options{MaxBatch: 4, Workers: 1, Obs: o})
	defer co.Close()

	// A single request far larger than MaxBatch must be split into
	// MaxBatch-sized chunks by the executor, and still return every row
	// bit-identical to the unbatched reference.
	n := 10 // 4 + 4 + 2
	res, err := co.Submit(context.Background(), rows[:n], 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(res.Rows, adaptWith(t, a, rows[:n], 7)) {
		t.Error("oversized request rows differ from unbatched reference")
	}
	if batches, _ := o.Registry.Value(obs.MetricServeBatches); batches != 3 {
		t.Errorf("batches = %v, want 3 (4+4+2 split)", batches)
	}
	// No executed batch may exceed MaxBatch: the batch-size histogram's
	// 100th percentile clamps to the bucket bound covering the largest
	// observation.
	sizeHist := o.Registry.FixedHistogram(obs.MetricServeBatchSize, obs.BatchSizeBuckets)
	if maxSeen := sizeHist.Quantile(1); maxSeen > 4 {
		t.Errorf("largest executed batch ≈ %v rows, exceeds MaxBatch 4", maxSeen)
	}
}

func TestCoalescerQueuedRequestCancellation(t *testing.T) {
	a, _, rows := fixtures(t)
	reg := NewRegistry(nil)
	reg.Swap(a)
	// The only executor is held busy, so the request below stays queued.
	g := newExecGate()
	co := NewCoalescer(reg, Options{MaxBatch: 1 << 20, Workers: 1, Faults: g.inj})
	defer co.Close()
	held := g.hold(t, co, rows[:1], 0)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := co.Submit(ctx, rows[:2], 0, false)
		errc <- err
	}()
	// The held request's rows left the admission count on pickup, so this
	// counts exactly the request below once it is admitted.
	waitFor(t, "the request to reach the queue", func() bool {
		return co.Status().QueuedRows == 2 && len(co.reqCh) == 0
	})
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Errorf("canceled queued Submit returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled Submit did not return; waiter leaked in the queue")
	}
	close(g.release)
	if out := <-held; out.err != nil {
		t.Fatalf("held request after release: %v", out.err)
	}
}

func TestCoalescerCloseDrainsQueuedRequests(t *testing.T) {
	a, _, rows := fixtures(t)
	reg := NewRegistry(nil)
	reg.Swap(a)
	// The only executor is held busy until Close has begun: the queued
	// requests must be served by the shutdown drain, not dropped.
	g := newExecGate()
	co := NewCoalescer(reg, Options{MaxBatch: 1 << 20, Workers: 1, Faults: g.inj})
	held := g.hold(t, co, rows[10:11], 0)

	const waiters = 5
	results := make([]Result, waiters)
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = co.Submit(context.Background(), rows[i:i+1], 0, false)
		}(i)
	}
	// Every waiter is admitted (Close then waits for its enqueue to finish).
	waitFor(t, "every waiter to be admitted", func() bool { return co.Status().QueuedRows == waiters })
	closed := make(chan struct{})
	go func() {
		co.Close()
		close(closed)
	}()
	waitFor(t, "Close to begin", func() bool {
		co.mu.Lock()
		defer co.mu.Unlock()
		return co.closed
	})
	close(g.release)
	<-closed
	wg.Wait()
	want := adaptWith(t, a, rows[:waiters], 0)
	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Errorf("queued request %d failed at shutdown: %v", i, errs[i])
			continue
		}
		if !sameRows(results[i].Rows, want[i:i+1]) {
			t.Errorf("request %d drained with wrong rows", i)
		}
	}
	if out := <-held; out.err != nil || !sameRows(out.res.Rows, adaptWith(t, a, rows[10:11], 0)) {
		t.Errorf("held request after Close: err=%v", out.err)
	}

	// After Close, new submissions are refused.
	if _, err := co.Submit(context.Background(), rows[:1], 0, false); err != ErrClosed {
		t.Errorf("Submit after Close: err = %v, want ErrClosed", err)
	}
}
