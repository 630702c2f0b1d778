package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"netdrift/internal/experiments"
)

// tinySize shrinks every knob so each workload runs in seconds (minutes
// under -race). The data stays at quick scale so that drift is detected
// and feature separation finds variant features to reconstruct.
func tinySize() size {
	sz := fullSize()
	sz.Scale = experiments.QuickScale
	sz.Scale.ClassifierEpochs = 2
	sz.Scale.Trees = 3
	sz.Scale.AdvEpochs = 1
	sz.Scale.GANEpochs = 2
	sz.Scale.Episodes = 5
	sz.Scale.FineTuneEpochs = 1
	sz.Setups = 1
	sz.Grids = 1
	sz.NominalRPS = 100
	sz.JobRequests = 200
	sz.Rounds = 2
	sz.AdaptRPS = 10
	sz.GANProbeEpochs = 1
	sz.ProbeReps = 4
	return sz
}

// benchmarkFile mirrors the parts of BENCHMARK.json the test checks.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesCatalogue keeps BENCHMARK.json and the metrics
// the program emits in step.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(names), len(workloads))
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end = %v, program emits %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer()) {
		t.Errorf("per_layer = %v, program emits %v", layer, perLayer())
	}
}

// TestWorkloadsEmitEveryMetric runs each workload at a tiny size, untraced
// and traced, and checks that every catalogue metric is emitted with its
// unit and that the run is correct.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				checkWorkload(t, name, traced)
			})
		}
	}
}

func checkWorkload(t *testing.T, name string, traced bool) {
	cfg := runConfig{
		Seed:    3,
		Seconds: time.Second,
		Trace:   traced,
		WorkDir: t.TempDir(),
		Size:    tinySize(),
		Log:     testLog{t},
	}
	res, err := execute(name, workloads[name], cfg, testLog{t})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	want := endToEnd
	if traced {
		want = perLayer()
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s unit %q, want %q", d.Name, m.Unit, d.Unit)
		case !traced && m.Value <= 0:
			t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
		}
	}
}

// testLog sends a run's log and info lines to the test log.
type testLog struct{ t *testing.T }

func (w testLog) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}
