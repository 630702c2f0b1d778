package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"netdrift/internal/core"
	"netdrift/internal/experiments"
	"netdrift/internal/obs"
)

// table1Shots is the Table I shot count per class.
const table1Shots = 5

// gridRun is one Table I grid.
type gridRun struct {
	wallS   float64
	rowS    []float64 // per method: fit+predict seconds over its columns
	cells   []float64 // the 52 F1 cells, method-major
	allocMB float64
	spans   []obs.SpanData
}

// runGrid runs one Table I grid — 5GC generated from dataSeed, the size's
// scale and shots, one repeat, all 13 methods × 4 classifiers — on a cell
// pool of one worker per usable CPU. The observer always carries a metrics
// registry (as driftbench runs); traced adds the span sink.
func runGrid(cfg runConfig, dataSeed int64, traced bool) (*gridRun, error) {
	o := obs.New()
	var sink *memSink
	if traced {
		sink = &memSink{}
		o.Spans = sink
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := experiments.RunTable1(experiments.Table1Config{
		Dataset: "5gc",
		Shots:   []int{table1Shots},
		Repeats: 1,
		Seed:    dataSeed,
		Scale:   cfg.Size.Scale,
		Workers: runtime.GOMAXPROCS(0),
		Obs:     o,
	})
	if err != nil {
		return nil, err
	}
	g := &gridRun{wallS: time.Since(start).Seconds()}
	runtime.ReadMemStats(&after)
	g.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	for _, m := range methodKeys {
		g.rowS = append(g.rowS, o.Registry.Histogram(obs.MetricMethodSeconds, "method", m.Method).Sum())
		for _, clf := range res.Classifiers {
			v, ok := res.Score(m.Method, table1Shots, clf)
			if !ok {
				v = math.NaN()
			}
			g.cells = append(g.cells, v)
		}
	}
	if sink != nil {
		g.spans = sink.take()
	}
	return g, nil
}

// badCells counts cells that are missing, non-finite or outside [0,100].
func (g *gridRun) badCells() int {
	bad := 0
	for _, v := range g.cells {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 100 {
			bad++
		}
	}
	return bad
}

// fsganF1 is FS+GAN's macro-F1 averaged over the four classifier columns.
func (g *gridRun) fsganF1() float64 {
	n := len(g.cells) / len(methodKeys)
	return mean(g.cells[:n])
}

func runTable1(cfg runConfig, rep *report) error {
	seeds := dataSeeds(cfg.Seed, cfg.Size.Grids)
	if cfg.Trace {
		seeds = seeds[:1]
	}
	pairs := make([]*experiments.Pair, len(seeds))
	setup, err := timedSetups(cfg.Size.Setups, func(int) error {
		for j, s := range seeds {
			p, err := experiments.MakePair("5gc", cfg.Size.Scale, s)
			if err != nil {
				return err
			}
			pairs[j] = p
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("setup_s", setup)

	heap := startHeapSampler()
	var grids []*gridRun
	for _, s := range seeds {
		g, err := runGrid(cfg, s, false)
		if err != nil {
			return err
		}
		grids = append(grids, g)
	}
	heapMB := heap.Stop()
	var walls, rows []float64
	for _, g := range grids {
		walls = append(walls, g.wallS)
		rows = append(rows, g.rowS...)
		rep.ops(len(g.cells), g.badCells())
		rep.note("table1-5gc: grid %.3f s, FS+GAN F1 %.2f, mean F1 over %d cells %.2f",
			g.wallS, g.fsganF1(), len(g.cells), mean(g.cells))
	}
	rep.note("table1-5gc: method row s %s", describe(rows))
	rep.set("heap_peak_mb", heapMB)
	rep.set("job_s", median(walls))
	rep.set("latency_p50_ms", median(rows)*1e3)
	rep.set("latency_p90_ms", quantile(rows, 0.9)*1e3)
	if !cfg.Trace {
		return nil
	}

	// The traced grid repeats the first one; instrumentation must not
	// change a single cell.
	first, pair := grids[0], pairs[0]
	heap = startHeapSampler()
	traced, err := runGrid(cfg, seeds[0], true)
	if err != nil {
		return err
	}
	tracedHeap := heap.Stop()
	rep.ops(len(traced.cells), traced.badCells()+mismatches(first.cells, traced.cells))
	setOverhead(rep, map[string][2]float64{
		"heap_peak_mb":   {heapMB, tracedHeap},
		"job_s":          {first.wallS, traced.wallS},
		"latency_p50_ms": {median(first.rowS) * 1e3, median(traced.rowS) * 1e3},
		"latency_p90_ms": {quantile(first.rowS, 0.9) * 1e3, quantile(traced.rowS, 0.9) * 1e3},
	})
	rep.set("experiments.alloc_mb", first.allocMB)
	rep.set("experiments.fsgan_f1", first.fsganF1())
	rep.set("experiments.mean_f1", mean(first.cells))

	// method.predict spans: with one repeat and one shot a method's row is
	// one cell of the pool, run on one worker.
	perMethod := map[string]float64{}
	var busy float64
	for _, s := range named(traced.spans, "method.predict") {
		perMethod[s.Attrs.Get("method")] += s.Duration.Seconds()
		busy += s.Duration.Seconds()
	}
	var cellMax float64
	for _, m := range methodKeys {
		rep.set("baselines.predict_s."+m.Key, perMethod[m.Method])
		cellMax = math.Max(cellMax, perMethod[m.Method])
	}
	rep.set("experiments.cell_s.max", cellMax)
	rep.set("experiments.pool_busy_ratio", busy/(float64(runtime.GOMAXPROCS(0))*traced.wallS))
	setAdapterSpans(rep, traced.spans)

	if err := probeModels(cfg, rep, pair); err != nil {
		return err
	}
	// The support draw RunTable1 makes for repeat 0.
	support, _, err := pair.TargetTrain.FewShot(table1Shots, pair.UseGroups,
		rand.New(rand.NewSource(seeds[0]+int64(table1Shots))))
	if err != nil {
		return err
	}
	if _, err := probeFS(rep, pair.Source, support); err != nil {
		return err
	}
	ad := core.NewAdapter(experiments.NewFSGAN(cfg.Size.Scale.GANEpochs, seeds[0]).Cfg)
	if err := ad.Fit(pair.Source, support); err != nil {
		return fmt.Errorf("probe adapter fit: %w", err)
	}
	return probeTransform(rep, ad, pair.TargetTest.X)
}

// setAdapterSpans reports the adapter pipeline's spans: mean adapter fit,
// feature-separation search and reconstructor fit.
func setAdapterSpans(rep *report, spans []obs.SpanData) {
	rep.set("core.adapter_fit_s", orZero(mean(durations(named(spans, "adapter.fit")))))
	rep.set("causal.fs_search_s", orZero(mean(durations(named(spans, "feature_separation")))))
	rep.set("core.recon_fit_s", orZero(mean(durations(named(spans, "reconstructor.fit")))))
}

// mismatches counts cells that differ bitwise from the reference grid.
func mismatches(ref, got []float64) int {
	n := 0
	for i := range ref {
		if i >= len(got) || math.Float64bits(ref[i]) != math.Float64bits(got[i]) {
			n++
		}
	}
	return n + max(0, len(got)-len(ref))
}
