package experiments

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
)

// marshal renders a result to canonical JSON bytes for byte-level
// comparison between worker counts.
func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunTable1WorkersBitIdentical is the pinned determinism test from the
// parallel-compute acceptance bar: a full Table I cell grid run with
// Workers=N must serialize to the same bytes as Workers=1.
func TestRunTable1WorkersBitIdentical(t *testing.T) {
	// Under the race detector the FS search is ~10x slower, so exercise
	// the concurrent cell pool with the cheap method only; the full grid
	// runs in the normal suite.
	methods := []string{"FS (ours)", "SrcOnly"}
	workerCounts := []int{2, 4}
	if raceEnabled {
		methods = []string{"SrcOnly"}
		workerCounts = []int{4}
	}
	run := func(workers int) *Table1Result {
		res, err := RunTable1(Table1Config{
			Dataset: "5gc",
			Methods: methods,
			Shots:   []int{1},
			Repeats: 2,
			Seed:    5,
			Scale:   QuickScale,
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := marshal(t, run(1))
	for _, workers := range workerCounts {
		if par := marshal(t, run(workers)); string(par) != string(seq) {
			t.Errorf("workers=%d: Table1Result bytes differ from sequential\nseq %s\npar %s",
				workers, seq, par)
		}
	}
}

func TestRunVariantCountsWorkersBitIdentical(t *testing.T) {
	if raceEnabled {
		t.Skip("FS-search concurrency is race-covered in internal/causal; this grid is too slow under the race detector")
	}
	run := func(workers int) *VariantCountResult {
		res, err := RunVariantCounts(SensitivityConfig{
			Dataset: "5gc",
			Shots:   []int{1, 5},
			Repeats: 2,
			Seed:    9,
			Scale:   QuickScale,
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := marshal(t, run(1))
	if par := marshal(t, run(3)); string(par) != string(seq) {
		t.Errorf("VariantCountResult bytes differ:\nseq %s\npar %s", seq, par)
	}
}

// TestLockedProgressSerializes checks the wrapper used to guard the
// user-supplied Progress callback during concurrent cell evaluation.
func TestLockedProgressSerializes(t *testing.T) {
	if lockedProgress(nil, 8) != nil {
		t.Error("nil callback should stay nil")
	}
	var lines []string
	raw := func(s string) { lines = append(lines, s) }
	wrapped := lockedProgress(raw, 8)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wrapped("line")
		}()
	}
	wg.Wait()
	if len(lines) != 16 {
		t.Errorf("got %d progress lines; want 16", len(lines))
	}
}

// TestRunTable1MemoisedBaselinesMatchRecorded pins the Table I cells of the
// methods whose preparation is memoised per cell (CMT, CORAL) plus SrcOnly
// to F1 bit patterns recorded before the memo and the partitioned XGB
// split search existed, at one and two workers.
func TestRunTable1MemoisedBaselinesMatchRecorded(t *testing.T) {
	want := map[string]map[string]uint64{
		"CMT":     {"TNet": 0x403e8f6359151282, "MLP": 0x40438d557f2231fa, "RF": 0x403f35246e8185e6, "XGB": 0x404af8e4039b45d3},
		"SrcOnly": {"TNet": 0x402e99e6d91da20a, "MLP": 0x403b3f10ee7f91c8, "RF": 0x4031776ef38311db, "XGB": 0x4043a35c5d09cbfa},
		"CORAL":   {"TNet": 0x4025dc72e623d9d2, "MLP": 0x402bc422dd59b390, "RF": 0x402cf7593eae53d2, "XGB": 0x4047caa8f4aa3d2a},
	}
	workerCounts := []int{1, 2}
	if raceEnabled {
		// The race detector makes each grid ~10x slower; the concurrent
		// pool is the leg it has something to check on.
		workerCounts = []int{2}
	}
	for _, workers := range workerCounts {
		res, err := RunTable1(Table1Config{
			Dataset: "5gc",
			Methods: []string{"CMT", "CORAL", "SrcOnly"},
			Shots:   []int{1},
			Repeats: 1,
			Seed:    7,
			Scale:   QuickScale,
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(want) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(res.Rows), len(want))
		}
		for _, row := range res.Rows {
			for clf, bits := range want[row.Method] {
				got := row.Scores[1][clf]
				if math.Float64bits(got) != bits {
					t.Errorf("workers=%d %s/%s: F1 %v (%#x), want %v (%#x)",
						workers, row.Method, clf, got, math.Float64bits(got), math.Float64frombits(bits), bits)
				}
			}
		}
	}
}
