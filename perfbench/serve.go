package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netdrift/internal/core"
	"netdrift/internal/experiments"
	"netdrift/internal/models"
	"netdrift/internal/serve"
)

// The serve-adapt traffic shape.
const (
	bundleShots   = 10   // few-shot support per class, as `driftserve -mkbundle`
	nominalShare  = 0.75 // share of the measured time spent at the nominal rate
	maxRowsPerReq = 8
	jobClients    = 64 // closed-loop clients of a capacity job
)

// serveFixture is one serve-adapt set-up: a 5GC pair and a quick-scale
// FS+GAN + MLP bundle fitted and written the way `driftserve -mkbundle`
// does it, in the binary format, with the responses it must give.
type serveFixture struct {
	pair       *experiments.Pair
	bundlePath string
	bundle     *serve.Bundle
	want       map[reqKey]uint64 // expected response hash per request
}

// fitServeFixture builds set-up j on dataset seed dataSeed.
func fitServeFixture(cfg runConfig, j int, dataSeed int64) (*serveFixture, error) {
	pair, err := experiments.MakePair("5gc", cfg.Size.Scale, dataSeed)
	if err != nil {
		return nil, err
	}
	ad, clf, err := fitBundle(pair, cfg.Size, dataSeed)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.WorkDir, fmt.Sprintf("serve-bundle-%d.ndbf", j))
	id := fmt.Sprintf("5gc-quick-seed%d", dataSeed)
	if err := serve.WriteBundleFileFormat(path, id, ad, clf, serve.FormatBinary); err != nil {
		return nil, err
	}
	b, err := serve.LoadBundleFile(path)
	if err != nil {
		return nil, err
	}
	return &serveFixture{pair: pair, bundlePath: path, bundle: b}, nil
}

// fitBundle fits the paper's FS+GAN adapter on a few-shot support draw
// and the downstream MLP on the adapter's source training data.
func fitBundle(pair *experiments.Pair, sz size, seed int64) (*core.Adapter, *models.MLPClassifier, error) {
	support, _, err := pair.TargetTrain.FewShot(bundleShots, pair.UseGroups, rand.New(rand.NewSource(seed+977)))
	if err != nil {
		return nil, nil, err
	}
	ad := core.NewAdapter(core.AdapterConfig{
		Mode:  core.ModeFSRecon,
		Recon: core.ReconGAN,
		GAN:   core.GANConfig{Epochs: sz.Scale.GANEpochs},
		Seed:  seed,
	})
	if err := ad.Fit(pair.Source, support); err != nil {
		return nil, nil, fmt.Errorf("fit adapter: %w", err)
	}
	train, err := ad.TrainingData(pair.Source)
	if err != nil {
		return nil, nil, err
	}
	clf := models.NewMLPClassifier(models.Options{Seed: seed, Epochs: sz.Scale.ClassifierEpochs})
	if err := clf.Fit(train.X, train.Y, pair.NumClasses); err != nil {
		return nil, nil, fmt.Errorf("fit classifier: %w", err)
	}
	return ad, clf, nil
}

// reqKey names a request's rows: n consecutive target-test rows from
// start, wrapping around.
type reqKey struct{ start, n int }

// rowsFor returns the key's rows.
func rowsFor(x [][]float64, k reqKey) [][]float64 {
	out := make([][]float64, k.n)
	for i := range out {
		out[i] = x[(k.start+i)%len(x)]
	}
	return out
}

// makePlan draws count requests of 1..maxRows rows each, cycling through
// the target-test rows.
func makePlan(rng *rand.Rand, count, maxRows, numRows int) []reqKey {
	plan := make([]reqKey, count)
	cursor := 0
	for i := range plan {
		n := 1 + rng.Intn(maxRows)
		plan[i] = reqKey{cursor % numRows, n}
		cursor += n
	}
	return plan
}

// expectedHashes computes, for every key, the hash of the binary
// /v1/adapt response the bundle must produce: direct AdaptBatch with the
// per-row seeds of request seed 0, then PredictProbaT.
func expectedHashes(b *serve.Bundle, x [][]float64, maxRows int) (map[reqKey]uint64, error) {
	out := make(map[reqKey]uint64, len(x)*maxRows)
	var scr core.AdaptScratch
	var mscr models.MLPScratch
	for start := range x {
		for n := 1; n <= maxRows; n++ {
			k := reqKey{start, n}
			rows := rowsFor(x, k)
			seeds := make([]int64, n)
			for i := range seeds {
				seeds[i] = core.SampleSeed(0, i)
			}
			adapted, err := b.Adapter.AdaptBatch(rows, seeds, &scr)
			if err != nil {
				return nil, err
			}
			preds, err := b.Classifier.PredictProbaT(adapted, &mscr)
			if err != nil {
				return nil, err
			}
			res := serve.Result{BundleID: b.ID}
			for i := 0; i < adapted.Rows(); i++ {
				res.Rows = append(res.Rows, append([]float64(nil), adapted.Row(i)...))
				res.Predictions = append(res.Predictions, append([]float64(nil), preds.Row(i)...))
			}
			out[k] = hashBytes(serve.AppendRowsResponse(nil, &res))
		}
	}
	return out, nil
}

// bodies recycles request encodings; the handler has read a body by the
// time ServeHTTP returns.
var bodies = sync.Pool{New: func() any { return new([]byte) }}

func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// serveRun is one measured pass of serve-adapt.
type serveRun struct {
	nominal  loadStats
	jobS     []float64
	requests int
	failed   int
	heapMB   float64
	layers   serveLayers
}

// measureServe runs against a fresh stack: a warm-up, then Rounds
// rounds, each hot-swapping in the next fixture's bundle, running the
// nominal-rate open loop for its share of d and then one capacity job.
// Spreading the jobs over the run keeps their median from resting on one
// stretch of a shared machine's memory bandwidth. Every response is
// compared byte for byte (by hash) with the direct computation; a
// mismatch, error, shed or degraded answer fails.
func measureServe(cfg runConfig, fixtures []*serveFixture, d time.Duration, traced bool) (*serveRun, error) {
	sz := cfg.Size
	st := newStack(stackOptions{traced: traced, seed: cfg.Seed})
	defer st.close()
	rng := rand.New(rand.NewSource(cfg.Seed))
	arrivals := rand.New(rand.NewSource(cfg.Seed ^ 0x6e6f6d))
	sender := func(fx *serveFixture) func(reqKey) bool {
		x := fx.pair.TargetTest.X
		return func(k reqKey) bool {
			buf := bodies.Get().(*[]byte)
			*buf = serve.AppendRowsRequest((*buf)[:0], rowsFor(x, k), 0, true)
			a := st.post("/v1/adapt", serve.ContentTypeRows, *buf)
			bodies.Put(buf)
			return a.code == http.StatusOK && !a.degraded && a.hash == fx.want[k]
		}
	}
	run := &serveRun{}

	// Warm-up: fill pools and scratch arenas before timing.
	if _, err := st.reg.LoadFile(fixtures[0].bundlePath); err != nil {
		return nil, err
	}
	const warm = 64
	send := sender(fixtures[0])
	for _, k := range makePlan(rng, warm, maxRowsPerReq, len(fixtures[0].pair.TargetTest.X)) {
		run.requests++
		if !send(k) {
			run.failed++
		}
	}
	if st.sink != nil {
		st.sink.take()
	}

	heap := startHeapSampler()
	segment := time.Duration(float64(d) * nominalShare / float64(sz.Rounds))
	for r := 0; r < sz.Rounds; r++ {
		// Start every round from a collected heap, so a segment does not
		// pay for the garbage of the job before it.
		runtime.GC()
		fx := fixtures[r%len(fixtures)]
		if _, err := st.reg.LoadFile(fx.bundlePath); err != nil {
			return nil, err
		}
		send := sender(fx)
		numRows := len(fx.pair.TargetTest.X)

		plan := makePlan(rng, int(sz.NominalRPS*segment.Seconds()*2)+64, maxRowsPerReq, numRows)
		stop := make(chan struct{})
		timer := time.AfterFunc(segment, func() { close(stop) })
		nominal := openLoop(stop, len(plan), poissonGap(arrivals, sz.NominalRPS), func(i int) bool {
			return send(plan[i])
		})
		timer.Stop()
		run.nominal.latencyMS = append(run.nominal.latencyMS, nominal.latencyMS...)
		run.nominal.lateMS = append(run.nominal.lateMS, nominal.lateMS...)
		run.requests += nominal.sent
		run.failed += nominal.failed
		if st.sink != nil {
			l := splitServeSpans(st.sink.take())
			run.layers.queueWaitMS = append(run.layers.queueWaitMS, l.queueWaitMS...)
			run.layers.batchMS = append(run.layers.batchMS, l.batchMS...)
			run.layers.batchRows = append(run.layers.batchRows, l.batchRows...)
			run.layers.handlerSelfMS = append(run.layers.handlerSelfMS, l.handlerSelfMS...)
		}

		// Capacity job: JobRequests requests served by jobClients
		// closed-loop clients, each sending its next request when the
		// previous one is answered; the job is the time to the last
		// answer. At most jobClients × maxRowsPerReq rows wait, far below
		// the admission bound, so nothing is shed.
		keys := makePlan(rng, sz.JobRequests, maxRowsPerReq, numRows)
		secs, failed := closedLoopJob(keys, jobClients, send)
		run.jobS = append(run.jobS, secs)
		run.requests += len(keys)
		run.failed += failed
		if st.sink != nil {
			st.sink.take() // the per-layer split covers the nominal stream
		}
	}
	run.heapMB = heap.Stop()
	return run, nil
}

// closedLoopJob serves keys through clients concurrent closed-loop
// clients and returns the wall-clock and the number of wrong answers.
func closedLoopJob(keys []reqKey, clients int, send func(reqKey) bool) (float64, int) {
	var (
		next   atomic.Int64
		failed atomic.Int64
		wg     sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(keys) {
					return
				}
				if !send(keys[i]) {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds(), int(failed.Load())
}

func runServeAdapt(cfg runConfig, rep *report) error {
	seeds := dataSeeds(cfg.Seed, cfg.Size.Setups)
	fixtures := make([]*serveFixture, len(seeds))
	setup, err := timedSetups(len(seeds), func(j int) (err error) {
		fixtures[j], err = fitServeFixture(cfg, j, seeds[j])
		return err
	})
	if err != nil {
		return err
	}
	rep.set("setup_s", setup)
	for _, fx := range fixtures {
		if fx.want, err = expectedHashes(fx.bundle, fx.pair.TargetTest.X, maxRowsPerReq); err != nil {
			return err
		}
	}

	d := cfg.Seconds
	if cfg.Trace {
		d /= 2
	}
	plain, err := measureServe(cfg, fixtures, d, false)
	if err != nil {
		return err
	}
	rep.ops(plain.requests, plain.failed)
	late := checkLate(rep, plain.nominal, "nominal stream", serveLateLimitMS)
	capacity := float64(cfg.Size.JobRequests) / median(plain.jobS)
	rep.set("heap_peak_mb", plain.heapMB)
	rep.set("job_s", median(plain.jobS))
	rep.set("latency_p50_ms", median(plain.nominal.latencyMS))
	rep.set("latency_p90_ms", quantile(plain.nominal.latencyMS, 0.9))
	rep.set("loadgen.latency_p50_ms", median(plain.nominal.latencyMS))
	rep.set("loadgen.latency_p99_ms", quantile(plain.nominal.latencyMS, 0.99))
	rep.set("loadgen.late_ms.p99", late)
	rep.set("loadgen.capacity_rps", capacity)
	rep.note("serve-adapt: %.0f req/s nominal, capacity %.0f req/s, generator late p99 %.3f ms",
		cfg.Size.NominalRPS, capacity, late)
	rep.note("serve-adapt: capacity job s %s", describe(plain.jobS))
	rep.note("serve-adapt: nominal /v1/adapt ms %s", describe(plain.nominal.latencyMS))
	if !cfg.Trace {
		return nil
	}

	traced, err := measureServe(cfg, fixtures, d, true)
	if err != nil {
		return err
	}
	rep.ops(traced.requests, traced.failed)
	checkLate(rep, traced.nominal, "traced nominal stream", serveLateLimitMS)
	traced.layers.set(rep)
	setOverhead(rep, map[string][2]float64{
		"heap_peak_mb":   {plain.heapMB, traced.heapMB},
		"job_s":          {median(plain.jobS), median(traced.jobS)},
		"latency_p50_ms": {median(plain.nominal.latencyMS), median(traced.nominal.latencyMS)},
		"latency_p90_ms": {quantile(plain.nominal.latencyMS, 0.9), quantile(traced.nominal.latencyMS, 0.9)},
	})
	return probeServing(cfg, rep, fixtures[0].bundle, fixtures[0].pair.TargetTest.X)
}

// setOverhead records traced minus untraced for each end-to-end metric.
func setOverhead(rep *report, pairs map[string][2]float64) {
	for name, v := range pairs {
		rep.set("trace_overhead."+name, v[1]-v[0])
	}
}
