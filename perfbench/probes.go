package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"netdrift/internal/causal"
	"netdrift/internal/core"
	"netdrift/internal/dataset"
	"netdrift/internal/experiments"
	"netdrift/internal/models"
	"netdrift/internal/monitor"
	"netdrift/internal/nn"
	"netdrift/internal/obs"
	"netdrift/internal/serve"
)

// Probes call one layer directly on the workload's own inputs and time it
// from outside. They run only in the traced run, after the measured phase.

// timeReps returns the median seconds of reps calls of f, after one
// untimed warm-up call.
func timeReps(reps int, f func() error) (float64, error) {
	if err := f(); err != nil {
		return 0, err
	}
	secs := make([]float64, reps)
	for i := range secs {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		secs[i] = time.Since(start).Seconds()
	}
	return median(secs), nil
}

// probeServing times the two compute steps of one full micro-batch:
// core.AdaptBatch and the classifier's PredictProbaT, per row.
func probeServing(cfg runConfig, rep *report, b *serve.Bundle, x [][]float64) error {
	const batch = 32 // the coalescer's default MaxBatch
	rows := rowsFor(x, reqKey{0, batch})
	seeds := make([]int64, batch)
	for i := range seeds {
		seeds[i] = core.SampleSeed(0, i)
	}
	var scr core.AdaptScratch
	var adapted *nn.Tensor
	adaptS, err := timeReps(cfg.Size.ProbeReps, func() (err error) {
		adapted, err = b.Adapter.AdaptBatch(rows, seeds, &scr)
		return err
	})
	if err != nil {
		return err
	}
	var mscr models.MLPScratch
	predictS, err := timeReps(cfg.Size.ProbeReps, func() error {
		_, err := b.Classifier.PredictProbaT(adapted, &mscr)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("core.adapt_batch_us_per_row", adaptS/batch*1e6)
	rep.set("models.predict_proba_t_us_per_row", predictS/batch*1e6)
	return nil
}

// probeModels fits and scores each Table I classifier family on the
// workload's source and target-test data, with the budgets RunTable1
// gives them.
func probeModels(cfg runConfig, rep *report, pair *experiments.Pair) error {
	sc := cfg.Size.Scale
	for _, kind := range models.AllKinds() {
		clf, err := models.New(kind, models.Options{Seed: cfg.Seed, Epochs: sc.ClassifierEpochs, Trees: sc.Trees})
		if err != nil {
			return err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := clf.Fit(pair.Source.X, pair.Source.Y, pair.NumClasses); err != nil {
			return fmt.Errorf("probe %s fit: %w", kind, err)
		}
		fitS := time.Since(start).Seconds()
		runtime.ReadMemStats(&after)
		start = time.Now()
		if _, err := clf.PredictProba(pair.TargetTest.X); err != nil {
			return fmt.Errorf("probe %s predict: %w", kind, err)
		}
		rep.set("models.fit_s."+kind.String(), fitS)
		rep.set("models.predict_s."+kind.String(), time.Since(start).Seconds())
		rep.set("models.fit_alloc_mb."+kind.String(), float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	}
	return nil
}

// probeFS runs the feature-separation search alone (one worker, as the
// Table I cells run it) and counts its CI tests. It returns the fitted
// separator for the probes that need the invariant/variant split.
func probeFS(rep *report, source, support *dataset.Dataset) (*core.FeatureSeparator, error) {
	o := obs.New()
	sep := core.NewFeatureSeparator(causal.FNodeConfig{Workers: 1, Obs: o})
	if err := sep.Fit(source.X, support.X); err != nil {
		return nil, err
	}
	var tests float64
	for _, kind := range []string{"marginal", "conditional"} {
		v, _ := o.Registry.Value(obs.MetricCITests, "kind", kind)
		tests += v
	}
	rep.set("causal.ci_tests", tests)
	return sep, nil
}

// probeTransform times TransformTarget, the experiment scoring path, on
// the target-test rows.
func probeTransform(rep *report, ad *core.Adapter, x [][]float64) error {
	secs, err := timeReps(3, func() error {
		_, err := ad.TransformTarget(x)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("core.transform_target_s", secs)
	return nil
}

// probeGAN trains the same 8-shard CGAN under each kernel set × worker
// count and checks that all four produce bit-identical weights, so the
// kernel effect and the worker effect each stand alone.
func probeGAN(cfg runConfig, rep *report, sep *core.FeatureSeparator, source *dataset.Dataset) error {
	scaled, err := sep.Scale(source.X)
	if err != nil {
		return err
	}
	inv, vr, err := sep.Split(scaled)
	if err != nil {
		return err
	}
	if len(vr) == 0 || len(vr[0]) == 0 {
		return fmt.Errorf("probe gan: no variant features to reconstruct")
	}
	prev := nn.SetVectorKernels(true)
	defer nn.SetVectorKernels(prev)
	var first []byte
	identical := true
	for _, c := range ganCells {
		nn.SetVectorKernels(c.Vector)
		workers := c.Workers
		if workers == 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		g := core.NewCGAN(core.GANConfig{
			Epochs:      cfg.Size.GANProbeEpochs,
			Conditional: true,
			Seed:        cfg.Seed,
			Shards:      8,
			Workers:     workers,
		})
		start := time.Now()
		if err := g.Fit(inv, vr, source.Y, source.NumClasses()); err != nil {
			return fmt.Errorf("probe gan %s: %w", c.Key, err)
		}
		rep.set("nn.gan_fit_s."+c.Key, time.Since(start).Seconds())
		var blob []byte
		for _, s := range g.Snapshots() {
			blob = nn.AppendSnapshot(blob, s)
		}
		if first == nil {
			first = blob
		} else if !bytes.Equal(first, blob) {
			identical = false
		}
	}
	if !identical {
		rep.markInvalid("nn.gan_fit_s: the four kernel × worker cells trained different weights")
	}
	rep.set("nn.gan_bit_identical", boolValue(identical))
	return nil
}

// probeMonitor times one drift check on a window of the workload's
// telemetry.
func probeMonitor(cfg runConfig, rep *report, det *monitor.Detector, window [][]float64) error {
	secs, err := timeReps(cfg.Size.ProbeReps/4, func() error {
		_, err := det.Check(window)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("monitor.check_ms", secs*1e3)
	return nil
}

func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
