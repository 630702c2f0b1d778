package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"netdrift/internal/core"
	"netdrift/internal/ctrl"
	"netdrift/internal/dataset"
	"netdrift/internal/experiments"
	"netdrift/internal/metrics"
	"netdrift/internal/models"
	"netdrift/internal/monitor"
	"netdrift/internal/obs"
	"netdrift/internal/serve"
)

// driftFixture is the drift-loop set-up: the 5GC pair, a stale incumbent
// bundle (an adapter whose support came from the source, so it never saw
// the drift, plus the downstream MLP that is never retrained) and a drift
// detector fitted on the source, much as `driftserve -ctrlcheck` builds
// them.
type driftFixture struct {
	pair      *experiments.Pair
	incPath   string
	incumbent *serve.Bundle
	probe     *dataset.Dataset
	incF1     float64 // the incumbent's macro-F1 on the probe set
}

func fitDriftFixture(cfg runConfig) (*driftFixture, error) {
	pair, err := experiments.MakePair("5gc", cfg.Size.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// Separating the source from itself finds no variant feature, so the
	// incumbent is pass-through scaling on every seed; a 40-row source
	// subset (as -ctrlcheck uses) finds spurious ones on some seeds and
	// would make set-up and serving cost depend on the seed.
	ad := core.NewAdapter(core.AdapterConfig{
		Mode:  core.ModeFSRecon,
		Recon: core.ReconGAN,
		GAN:   core.GANConfig{Epochs: 2},
		Seed:  cfg.Seed,
	})
	if err := ad.Fit(pair.Source, pair.Source); err != nil {
		return nil, fmt.Errorf("fit stale incumbent: %w", err)
	}
	train, err := ad.TrainingData(pair.Source)
	if err != nil {
		return nil, err
	}
	clf := models.NewMLPClassifier(models.Options{Seed: cfg.Seed, Epochs: cfg.Size.Scale.ClassifierEpochs})
	if err := clf.Fit(train.X, train.Y, pair.NumClasses); err != nil {
		return nil, fmt.Errorf("fit classifier: %w", err)
	}
	path := filepath.Join(cfg.WorkDir, "bundle-epoch000000.ndbf")
	if err := serve.WriteBundleFileFormat(path, "drift-incumbent", ad, clf, serve.FormatBinary); err != nil {
		return nil, err
	}
	inc, err := serve.LoadBundleFile(path)
	if err != nil {
		return nil, err
	}
	if _, err := newDetector(pair.Source); err != nil {
		return nil, err
	}
	fx := &driftFixture{pair: pair, incPath: path, incumbent: inc, probe: head(pair.TargetTest, 160)}
	fx.incF1, err = probeF1(inc, fx.probe, pair.NumClasses)
	return fx, err
}

func newDetector(source *dataset.Dataset) (*monitor.Detector, error) {
	det := monitor.New(monitor.Config{})
	if err := det.Fit(source.X); err != nil {
		return nil, fmt.Errorf("fit drift detector: %w", err)
	}
	return det, nil
}

func head(ds *dataset.Dataset, n int) *dataset.Dataset {
	n = min(n, len(ds.X))
	return &dataset.Dataset{X: ds.X[:n], Y: ds.Y[:n]}
}

// campaign is one drift-response episode.
type campaign struct {
	ok       bool    // ended in a gate verdict that matches the probe scores
	promoted bool    // the verdict was a promotion, now served
	verdictS float64 // first drifted ingest call → verdict in effect
	cycleS   float64 // the whole campaign: reinstall, controller up, verdict, controller down
	detectS  float64 // first drifted ingest call → drift-detected
	candF1   float64 // the refit candidate's macro-F1 on the probe set
	ingest   loadStats
	adapter  *core.Adapter // the refit candidate, in the traced run
}

// driftRun is one measured pass of drift-loop.
type driftRun struct {
	campaigns []campaign
	adapt     loadStats
	heapMB    float64
	spans     []obs.SpanData
}

// verdicts returns the drift-to-verdict seconds of the correct campaigns.
func (r *driftRun) verdicts() []float64 {
	var out []float64
	for _, c := range r.campaigns {
		if c.ok {
			out = append(out, c.verdictS)
		}
	}
	return out
}

// cycles returns the wall-clock seconds of the correct campaigns.
func (r *driftRun) cycles() []float64 {
	var out []float64
	for _, c := range r.campaigns {
		if c.ok {
			out = append(out, c.cycleS)
		}
	}
	return out
}

func (r *driftRun) promotions() int {
	n := 0
	for _, c := range r.campaigns {
		if c.ok && c.promoted {
			n++
		}
	}
	return n
}

// measureDrift runs campaigns back to back for d (at least one) while a
// background open-loop /v1/adapt stream reads from the same server.
func measureDrift(cfg runConfig, fx *driftFixture, d time.Duration, traced bool) (*driftRun, error) {
	sz := cfg.Size
	st := newStack(stackOptions{traced: traced, seed: cfg.Seed,
		breakerBackoff: 2 * time.Millisecond, breakerMaxBackoff: 20 * time.Millisecond})
	defer st.close()
	st.reg.Swap(fx.incumbent)

	// Background reads: 32-row JSON requests, so each fills a batch alone.
	x := fx.pair.TargetTest.X
	var adaptBodies [][]byte
	for start := 0; start < len(x); start += adaptRows {
		body, err := json.Marshal(serve.AdaptRequest{Rows: rowsFor(x, reqKey{start, adaptRows}), Predict: true})
		if err != nil {
			return nil, err
		}
		adaptBodies = append(adaptBodies, body)
	}
	run := &driftRun{}
	heap := startHeapSampler()
	stopReads := make(chan struct{})
	readsDone := make(chan loadStats, 1)
	arrivals := rand.New(rand.NewSource(cfg.Seed ^ 0x616470))
	go func() {
		readsDone <- openLoop(stopReads, 0, poissonGap(arrivals, sz.AdaptRPS), func(i int) bool {
			a := st.post("/v1/adapt", "application/json", adaptBodies[i%len(adaptBodies)])
			return a.code == http.StatusOK && !a.degraded
		})
	}()

	var err error
	start := time.Now()
	for len(run.campaigns) == 0 || time.Since(start)+time.Duration(median(run.cycles())*float64(time.Second)) <= d {
		var c campaign
		began := time.Now()
		c, err = runCampaign(cfg, st, fx, len(run.campaigns), traced)
		if err != nil {
			break
		}
		c.cycleS = time.Since(began).Seconds()
		run.campaigns = append(run.campaigns, c)
		if !c.ok {
			break
		}
	}
	close(stopReads)
	run.adapt = <-readsDone
	run.heapMB = heap.Stop()
	if err != nil {
		return nil, err
	}
	if st.sink != nil {
		run.spans = st.sink.take()
	}
	return run, nil
}

// runCampaign reinstalls the stale incumbent, arms a fresh controller
// (configured as `driftserve -ctrlcheck` phase A) and streams labelled
// target telemetry to /v1/ingest at a fixed rate until the controller's
// shadow gate decides: it promotes the refit or keeps the incumbent.
//
// Either verdict is correct when it matches the probe scores the
// benchmark computes itself (promote exactly when the candidate beats the
// incumbent's macro-F1 by the gate's default one-point margin) and the
// registry serves what the verdict says. On some seeds the quick-scale
// refit does not beat the stale incumbent; keeping the incumbent is then
// the right answer, not a failure. A refit or promote failure, a wrong
// verdict or no verdict within verdictLimit fails the campaign.
func runCampaign(cfg runConfig, st *stack, fx *driftFixture, n int, traced bool) (campaign, error) {
	sz := cfg.Size
	st.reg.Swap(fx.incumbent)
	det, err := newDetector(fx.pair.Source)
	if err != nil {
		return campaign{}, err
	}
	dir := filepath.Join(cfg.WorkDir, fmt.Sprintf("campaign%03d", n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return campaign{}, err
	}
	defer os.RemoveAll(dir)

	var refitObs *obs.Observer
	if traced {
		refitObs = st.o
	}
	source := fx.pair.Source
	// Written by the campaign goroutine; read after c.Close returns.
	var (
		cand   *core.Adapter
		candID string
	)
	refit := func(ctx context.Context, shots *dataset.Dataset, epoch int) (*ctrl.Candidate, error) {
		ad := core.NewAdapter(core.AdapterConfig{
			Mode:  core.ModeFSRecon,
			Recon: core.ReconGAN,
			GAN:   core.GANConfig{Epochs: sz.Scale.GANEpochs},
			Seed:  cfg.Seed + int64(epoch),
			Obs:   refitObs,
		})
		if err := ad.Fit(source, shots); err != nil {
			return nil, err
		}
		cand, candID = ad, fmt.Sprintf("refit-epoch%d", epoch)
		return &ctrl.Candidate{ID: candID, Adapter: ad}, nil
	}
	// One campaign emits a handful of transitions; the buffer holds them
	// all so OnEvent, which runs under the controller's lock, never blocks.
	events := make(chan ctrl.Event, 64)
	c, err := ctrl.New(ctrl.Config{
		Detector: det, Registry: st.reg, Refit: refit,
		Probe: fx.probe, NumClasses: fx.pair.NumClasses,
		WindowSize: 32, CheckEvery: 16, DriftUp: 2,
		Cooldown:      150 * time.Millisecond,
		ShotsPerClass: ctrlShots, MinShotsPerClass: 2,
		Retry:     ctrl.RetryConfig{MaxAttempts: 3, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 40 * time.Millisecond},
		BundleDir: dir, BundleFormat: serve.FormatBinary,
		InitialBundlePath: fx.incPath,
		SLO:               st.srv.SLOSet(),
		WatchFor:          1200 * time.Millisecond, WatchEvery: 25 * time.Millisecond,
		WatchWindow: 10 * time.Second, MinWatchRequests: 10,
		CheckpointPath: filepath.Join(dir, "ctrl.ckpt"),
		Seed:           cfg.Seed, Obs: st.o,
		OnEvent: func(ev ctrl.Event) {
			select {
			case events <- ev:
			default:
			}
		},
	})
	if err != nil {
		return campaign{}, err
	}
	st.srv.SetIngest(c)
	c.Start()

	telemetry := fx.pair.TargetTrain
	var ingestBodies [][]byte
	for at := 0; at < len(telemetry.X); at += ingestRows {
		k := reqKey{at, ingestRows}
		labels := make([]int, k.n)
		for i := range labels {
			labels[i] = telemetry.Y[(at+i)%len(telemetry.Y)]
		}
		body, err := json.Marshal(serve.IngestRequest{Rows: rowsFor(telemetry.X, k), Labels: labels})
		if err != nil {
			return campaign{}, err
		}
		ingestBodies = append(ingestBodies, body)
	}
	stop := make(chan struct{})
	ingestDone := make(chan loadStats, 1)
	t0 := time.Now()
	go func() {
		ingestDone <- openLoop(stop, 0, fixedGap(ingestInterval), func(i int) bool {
			return st.post(serve.EndpointIngest, "application/json", ingestBodies[i%len(ingestBodies)]).code == http.StatusOK
		})
	}()

	var out campaign
	var gateDetail string
	verdict := false
	timeout := time.After(verdictLimit)
wait:
	for {
		select {
		case ev := <-events:
			switch ev.Kind {
			case ctrl.EventDriftDetected:
				out.detectS = ev.At.Sub(t0).Seconds()
			case ctrl.EventGatePass:
				gateDetail = ev.Detail
			case ctrl.EventPromote:
				out.verdictS = ev.At.Sub(t0).Seconds()
				out.promoted, verdict = true, true
				break wait
			case ctrl.EventGateFail:
				gateDetail = ev.Detail
				out.verdictS = ev.At.Sub(t0).Seconds()
				verdict = true
				break wait
			case ctrl.EventRefitFail, ctrl.EventPromoteFail:
				fmt.Fprintf(cfg.Log, "perfbench: campaign %d ended with %s: %s\n", n, ev.Kind, ev.Detail)
				break wait
			}
		case <-timeout:
			fmt.Fprintf(cfg.Log, "perfbench: campaign %d: no verdict within %s\n", n, verdictLimit)
			break wait
		}
	}
	close(stop)
	out.ingest = <-ingestDone
	cur := st.reg.Current()
	c.Close()
	st.srv.SetIngest(nil)
	if !verdict || cand == nil {
		return out, nil
	}
	if traced {
		out.adapter = cand // kept for the transform probe only
	}
	out.candF1, err = probeF1(&serve.Bundle{Adapter: cand, Classifier: fx.incumbent.Classifier}, fx.probe, fx.pair.NumClasses)
	if err != nil {
		return out, err
	}
	const margin = 1.0 // the shadow gate's default MinWinMargin
	wantPromote := out.candF1 >= fx.incF1+margin
	served := cur != nil && cur.ID == candID
	format := "candidate=%f incumbent=%f"
	if !out.promoted {
		served = cur == fx.incumbent
		format = "candidate %f vs incumbent %f"
	}
	// The gate prints its scores with two decimals.
	var gatedCand, gatedInc float64
	_, scanErr := fmt.Sscanf(gateDetail, format, &gatedCand, &gatedInc)
	out.ok = out.promoted == wantPromote && served && scanErr == nil &&
		math.Abs(gatedCand-out.candF1) <= 0.006 && math.Abs(gatedInc-fx.incF1) <= 0.006
	if !out.ok {
		fmt.Fprintf(cfg.Log, "perfbench: campaign %d: verdict promote=%v (gate %q), probe macro-F1 candidate %.4f incumbent %.4f, served as decided=%v\n",
			n, out.promoted, gateDetail, out.candF1, fx.incF1, served)
	}
	return out, nil
}

// probeF1 scores a bundle on the probe set exactly as the shadow gate
// does: AdaptBatch with zero seeds, PredictProbaT, argmax, macro-F1.
func probeF1(b *serve.Bundle, probe *dataset.Dataset, numClasses int) (float64, error) {
	var scr core.AdaptScratch
	out, err := b.Adapter.AdaptBatch(probe.X, make([]int64, len(probe.X)), &scr)
	if err != nil {
		return 0, err
	}
	var mscr models.MLPScratch
	probs, err := b.Classifier.PredictProbaT(out, &mscr)
	if err != nil {
		return 0, err
	}
	pred := make([]int, probs.Rows())
	for i := range pred {
		row := probs.Row(i)
		for j, v := range row {
			if v > row[pred[i]] {
				pred[i] = j
			}
		}
	}
	return metrics.MacroF1Score(probe.Y, pred, numClasses)
}

// The drift-loop traffic: telemetry at 400 rows/s, fast enough that the
// 32-row drift window fills within a tenth of a second, and background
// reads of 32 rows — a full micro-batch each, so they bypass coalescing.
const (
	ingestRows     = 8
	ingestInterval = 20 * time.Millisecond
	adaptRows      = 32
	ctrlShots      = 10 // reservoir shots per class, as `-ctrlcheck -shots 10`
	verdictLimit   = time.Minute
)

func runDriftLoop(cfg runConfig, rep *report) error {
	var fx *driftFixture
	setup, err := timedSetups(cfg.Size.Setups, func(int) (err error) {
		fx, err = fitDriftFixture(cfg)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("setup_s", setup)

	d := cfg.Seconds
	if cfg.Trace {
		d /= 2
	}
	plain, err := measureDrift(cfg, fx, d, false)
	if err != nil {
		return err
	}
	record := func(r *driftRun) {
		rep.ops(len(r.campaigns), len(r.campaigns)-len(r.verdicts()))
		rep.ops(r.adapt.sent, r.adapt.failed)
		for _, c := range r.campaigns {
			rep.ops(c.ingest.sent, c.ingest.failed)
		}
	}
	record(plain)
	late := checkLate(rep, plain.adapt, "background adapt stream", driftLateLimitMS)
	rec := plain.verdicts()
	if len(rec) == 0 {
		return fmt.Errorf("no campaign reached a correct verdict")
	}
	// The campaign is the unit operation: its latency is drift-to-verdict
	// and the job is one full campaign cycle. The background reads share
	// two cores with the refit, so their latency moves with whatever else
	// the machine runs more than any bound allows; it is reported per
	// layer (loadgen.latency_*).
	rep.set("heap_peak_mb", plain.heapMB)
	rep.set("job_s", median(plain.cycles()))
	rep.set("latency_p50_ms", median(rec)*1e3)
	rep.set("latency_p90_ms", quantile(rec, 0.9)*1e3)
	rep.set("loadgen.latency_p50_ms", median(plain.adapt.latencyMS))
	rep.set("loadgen.latency_p99_ms", quantile(plain.adapt.latencyMS, 0.99))
	rep.note("drift-loop: %d campaign(s), %d promoted, drift-to-verdict median %.3f s, generator late p99 %.3f ms",
		len(plain.campaigns), plain.promotions(), median(rec), late)
	rep.note("drift-loop: background /v1/adapt ms %s", describe(plain.adapt.latencyMS))
	var ingestAll []float64
	for _, c := range plain.campaigns {
		ingestAll = append(ingestAll, c.ingest.latencyMS...)
	}
	rep.note("drift-loop: /v1/ingest ms %s", describe(ingestAll))
	rep.note("drift-loop: drift-to-verdict s %s", describe(rec))
	if !cfg.Trace {
		return nil
	}

	traced, err := measureDrift(cfg, fx, d, true)
	if err != nil {
		return err
	}
	record(traced)
	checkLate(rep, traced.adapt, "traced background adapt stream", driftLateLimitMS)
	trec := traced.verdicts()
	if len(trec) == 0 {
		return fmt.Errorf("no traced campaign reached a correct verdict")
	}
	setOverhead(rep, map[string][2]float64{
		"heap_peak_mb":   {plain.heapMB, traced.heapMB},
		"job_s":          {median(plain.cycles()), median(traced.cycles())},
		"latency_p50_ms": {median(rec) * 1e3, median(trec) * 1e3},
		"latency_p90_ms": {quantile(rec, 0.9) * 1e3, quantile(trec, 0.9) * 1e3},
	})
	rep.set("loadgen.late_ms.p99", late)

	var detect, gateF1, ingestMS []float64
	for _, c := range plain.campaigns {
		detect = append(detect, c.detectS)
		gateF1 = append(gateF1, c.candF1)
		ingestMS = append(ingestMS, c.ingest.latencyMS...)
	}
	rep.set("monitor.detect_s", median(detect))
	rep.set("ctrl.refit_macro_f1", median(gateF1))
	rep.set("ctrl.ingest_ms.p99", quantile(ingestMS, 0.99))
	rep.set("ctrl.promote_ratio", float64(plain.promotions())/float64(len(plain.campaigns)))
	rep.set("ctrl.refit_s", orZero(median(durations(named(traced.spans, "ctrl.refit")))))
	rep.set("ctrl.gate_s", orZero(median(durations(named(traced.spans, "ctrl.gate")))))
	rep.set("ctrl.promote_s", orZero(median(durations(named(traced.spans, "ctrl.promote")))))
	setAdapterSpans(rep, traced.spans)
	splitServeSpans(traced.spans).set(rep)

	telemetry := fx.pair.TargetTrain
	sep, err := probeFS(rep, fx.pair.Source, telemetry)
	if err != nil {
		return err
	}
	if err := probeGAN(cfg, rep, sep, fx.pair.Source); err != nil {
		return err
	}
	det, err := newDetector(fx.pair.Source)
	if err != nil {
		return err
	}
	if err := probeMonitor(cfg, rep, det, head(telemetry, 32).X); err != nil {
		return err
	}
	return probeTransform(rep, traced.campaigns[0].adapter, fx.pair.TargetTest.X)
}
