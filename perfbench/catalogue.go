package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"netdrift/internal/experiments"
	"netdrift/internal/models"
	"netdrift/internal/nn"
)

// metricDef names a metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them; what "job" and "latency" time on each
// workload is documented in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
	{"job_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
}

// methodKeys maps Table I method names to metric-name suffixes.
var methodKeys = []struct{ Method, Key string }{
	{"FS+GAN (ours)", "FS_GAN"},
	{"FS (ours)", "FS"},
	{"CMT", "CMT"},
	{"ICD", "ICD"},
	{"SrcOnly", "SrcOnly"},
	{"TarOnly", "TarOnly"},
	{"S&T", "S_T"},
	{"Fine-tune", "Fine-tune"},
	{"CORAL", "CORAL"},
	{"DANN", "DANN"},
	{"SCL", "SCL"},
	{"MatchNet", "MatchNet"},
	{"ProtoNet", "ProtoNet"},
}

// ganCells are the cells of the nn.gan_fit_s kernel × worker grid.
var ganCells = []struct {
	Key     string
	Vector  bool
	Workers int // 0 = one worker per usable CPU
}{
	{"scalar-w1", false, 1},
	{"scalar-wN", false, 0},
	{"vector-w1", true, 1},
	{"vector-wN", true, 0},
}

// perLayer lists the traced run's metrics, in report order.
func perLayer() []metricDef {
	defs := []metricDef{
		{"experiments.cell_s.max", "s"},
		{"experiments.pool_busy_ratio", "ratio"},
		{"experiments.alloc_mb", "MB"},
		{"experiments.fsgan_f1", "%"},
		{"experiments.mean_f1", "%"},
	}
	for _, m := range methodKeys {
		defs = append(defs, metricDef{"baselines.predict_s." + m.Key, "s"})
	}
	for _, k := range models.AllKinds() {
		defs = append(defs,
			metricDef{"models.fit_s." + k.String(), "s"},
			metricDef{"models.predict_s." + k.String(), "s"},
			metricDef{"models.fit_alloc_mb." + k.String(), "MB"})
	}
	defs = append(defs,
		metricDef{"causal.fs_search_s", "s"},
		metricDef{"causal.ci_tests", "count"},
		metricDef{"core.adapter_fit_s", "s"},
		metricDef{"core.recon_fit_s", "s"},
		metricDef{"core.transform_target_s", "s"},
	)
	for _, c := range ganCells {
		defs = append(defs, metricDef{"nn.gan_fit_s." + c.Key, "s"})
	}
	defs = append(defs,
		metricDef{"nn.gan_bit_identical", "bool"},
		metricDef{"serve.queue_wait_ms.p50", "ms"},
		metricDef{"serve.queue_wait_ms.p99", "ms"},
		metricDef{"serve.batch_ms.p50", "ms"},
		metricDef{"serve.batch_rows.mean", "rows"},
		metricDef{"serve.handler_self_ms.p50", "ms"},
		metricDef{"core.adapt_batch_us_per_row", "us"},
		metricDef{"models.predict_proba_t_us_per_row", "us"},
		metricDef{"monitor.detect_s", "s"},
		metricDef{"monitor.check_ms", "ms"},
		metricDef{"ctrl.refit_s", "s"},
		metricDef{"ctrl.gate_s", "s"},
		metricDef{"ctrl.promote_s", "s"},
		metricDef{"ctrl.promote_ratio", "ratio"},
		metricDef{"ctrl.ingest_ms.p99", "ms"},
		metricDef{"ctrl.refit_macro_f1", "%"},
		metricDef{"loadgen.late_ms.p99", "ms"},
		metricDef{"loadgen.latency_p50_ms", "ms"},
		metricDef{"loadgen.latency_p99_ms", "ms"},
		metricDef{"loadgen.capacity_rps", "1/s"},
	)
	for _, d := range endToEnd {
		if d.Name != "setup_s" {
			defs = append(defs, metricDef{"trace_overhead." + d.Name, d.Unit})
		}
	}
	return defs
}

// unitOf indexes both catalogues by name.
var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		m[d.Name] = d.Unit
	}
	return m
}()

// size holds the knobs that set how much work one run does. fullSize is
// what the benchmark measures; the self-test shrinks it.
type size struct {
	Scale  experiments.Scale
	Setups int // set-ups per run (serve-adapt: one bundle each); setup_s is their median
	Grids  int // Table I grids per run, each on its own dataset draw

	NominalRPS  float64 // serve-adapt open-loop rate
	JobRequests int     // requests in one capacity job
	Rounds      int     // serve-adapt rounds: a nominal segment, then a capacity job

	AdaptRPS float64 // drift-loop background /v1/adapt rate

	ProbeReps      int // repetitions of each micro probe
	GANProbeEpochs int // epochs of each nn.gan_fit_s cell
}

func fullSize() size {
	return size{
		Scale:  experiments.QuickScale,
		Setups: 3,
		Grids:  3,

		NominalRPS:  250,
		JobRequests: 2000,
		Rounds:      6,

		AdaptRPS: 20,

		ProbeReps:      200,
		GANProbeEpochs: 5,
	}
}

// vectorKernels reports whether the AVX training/inference kernels are
// bound (they are whenever the CPU supports them).
func vectorKernels() bool {
	nn.SetVectorKernels(true)
	return nn.SetVectorKernels(true)
}

// heapSampler tracks the peak live heap (bytes marked live by the last
// GC cycle) while it runs.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: liveHeapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / 1e6
}

// sourceDigest identifies the code under test by a digest of the Go
// sources and go.mod files under root, the benchmark's own directory and
// build outputs excluded. The checkout a run builds from need not be a
// git repository, so there may be no commit hash to read.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "perfbench":
				if path != root {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if len(files) == 0 {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}
