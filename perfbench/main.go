// Command perfbench is the repository benchmark. It drives the three
// end-to-end paths of netdrift — the Table I reproduction, /v1/adapt
// serving and the drift-to-recovery control loop — through the public
// functions of the internal packages, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the line carries the end-to-end metrics, measured with
// span tracing off. With --trace 1 the run measures the workload again
// with an in-memory span sink attached, adds direct probe calls into each
// layer, and the line carries the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workloads maps a workload name to its runner.
var workloads = map[string]func(cfg runConfig, rep *report) error{
	"table1-5gc":  runTable1,
	"serve-adapt": runServeAdapt,
	"drift-loop":  runDriftLoop,
}

// runConfig is one run's settings.
type runConfig struct {
	Seed    int64
	Seconds time.Duration
	Trace   bool
	WorkDir string
	Size    size
	Log     io.Writer
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: table1-5gc|serve-adapt|drift-loop")
		seed     = flag.Int64("seed", 1, "workload seed: every input is generated from it")
		seconds  = flag.Float64("seconds", 10, "how long one run measures")
		trace    = flag.Int("trace", 0, "0 = end-to-end metrics with tracing off; 1 = traced run with per-layer metrics")
		workdir  = flag.String("workdir", ".bench_build/work", "scratch directory for bundle and checkpoint files")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	clampProcs()
	cfg := runConfig{
		Seed:    *seed,
		Seconds: time.Duration(*seconds * float64(time.Second)),
		Trace:   *trace == 1,
		WorkDir: filepath.Join(*workdir, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid())),
		Size:    fullSize(),
		Log:     os.Stderr,
	}
	res, err := execute(*workload, run, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs one workload in a fresh work directory and assembles its
// result. The environment stamp and the informational lines go to out
// before the result; the caller prints the result line last.
func execute(name string, run func(runConfig, *report) error, cfg runConfig, out io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.WorkDir)
	stamp, err := json.Marshal(envStamp(name, cfg))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "stamp %s\n", stamp)
	rep := newReport()
	if err := run(cfg, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	for _, note := range rep.notes {
		fmt.Fprintf(out, "info %s\n", note)
	}
	for _, why := range rep.invalid {
		fmt.Fprintln(cfg.Log, "perfbench: invalid run:", why)
	}
	return rep.result(cfg.Trace)
}

// clampProcs keeps GOMAXPROCS at or below the number of usable CPUs: an
// inherited GOMAXPROCS above it would measure oversubscription.
func clampProcs() {
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's operations, metric values and notes.
type report struct {
	attempted, failed int
	invalid           []string
	values            map[string]float64
	notes             []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

// set records a metric value; the unit comes from the catalogue.
func (r *report) set(name string, v float64) {
	if _, ok := unitOf[name]; !ok {
		panic("perfbench: metric not in catalogue: " + name)
	}
	r.values[name] = v
}

// ops counts attempted and failed operations.
func (r *report) ops(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// markInvalid flags the run's numbers as untrustworthy (correct=false).
func (r *report) markInvalid(format string, args ...any) {
	r.invalid = append(r.invalid, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result selects the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run). An end-to-end metric must have been measured; a
// layer the workload never enters reads 0.
func (r *report) result(traced bool) (*result, error) {
	res := &result{
		Correct:   r.failed == 0 && len(r.invalid) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	defs := endToEnd
	if traced {
		defs = perLayer()
	}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	return res, nil
}

// envStamp records what the numbers were measured on.
func envStamp(workload string, cfg runConfig) map[string]any {
	return map[string]any{
		"workload":       workload,
		"seed":           cfg.Seed,
		"seconds":        cfg.Seconds.Seconds(),
		"trace":          cfg.Trace,
		"num_cpu":        runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"goarch":         runtime.GOARCH,
		"go_version":     runtime.Version(),
		"vector_kernels": vectorKernels(),
		"commit":         sourceDigest("."),
	}
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// describe summarises a latency sample for the info lines.
func describe(xs []float64) string {
	return fmt.Sprintf("n=%d p50=%.3f p90=%.3f p95=%.3f p99=%.3f max=%.3f",
		len(xs), quantile(xs, 0.5), quantile(xs, 0.9), quantile(xs, 0.95), quantile(xs, 0.99), quantile(xs, 1))
}

// mean returns the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// timedSetups runs setup(0), …, setup(n-1) and returns the median
// wall-clock in seconds.
func timedSetups(n int, setup func(i int) error) (float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		if err := setup(i); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

// dataSeeds derives n dataset seeds from the workload seed, so a run
// measures several draws and its time is not one dataset's accident.
func dataSeeds(seed int64, n int) []int64 {
	seeds := make([]int64, n)
	for j := range seeds {
		seeds[j] = seed*1000 + int64(j)
	}
	return seeds
}
