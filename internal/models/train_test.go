package models

import (
	"errors"
	"math/rand"
	"testing"

	"netdrift/internal/nn"
)

// TestPredictProbaRejectsWidthMismatch is the table test over every
// classifier family: a row narrower or wider than the training width is
// rejected with an *InputWidthError naming the row, never answered from
// stale scratch, truncated, or a panic.
func TestPredictProbaRejectsWidthMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := blobs(60, 3, 2, 4, rng)
	cases := []struct {
		name  string
		rows  [][]float64
		row   int
		width int
	}{
		{"narrow", [][]float64{{0.5}}, 0, 1},
		{"wide", [][]float64{{0.5, 1, -1, 2}}, 0, 4},
		{"ragged-later-row", [][]float64{{0.5, 1, -1}, {0.5, 1, -1}, {2}}, 2, 1},
		{"empty-row", [][]float64{{0.5, 1, -1}, {}}, 1, 0},
	}
	for _, kind := range AllKinds() {
		c, err := New(kind, Options{Seed: 1, Epochs: 2, Trees: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Fit(x, y, 2); err != nil {
			t.Fatal(err)
		}
		for _, tc := range cases {
			t.Run(kind.String()+"/"+tc.name, func(t *testing.T) {
				p, err := c.PredictProba(tc.rows)
				var we *InputWidthError
				if !errors.As(err, &we) {
					t.Fatalf("PredictProba = %v, %v; want *InputWidthError", p, err)
				}
				if we.Row != tc.row || we.Width != tc.width || we.Want != 3 {
					t.Errorf("error %+v, want row %d width %d want 3", *we, tc.row, tc.width)
				}
			})
		}
	}
}

// tnetLikeNet builds the TNet architecture for an in-feature, k-class
// problem (gate, 128 and 64 hidden units with batch norm, ReLU and
// dropout).
func tnetLikeNet(in, k int, rng *rand.Rand) *nn.Network {
	return nn.NewNetwork(
		NewFeatureGate(in, rng),
		nn.NewDense(in, 128, rng), nn.NewBatchNorm(128), nn.NewReLU(), nn.NewDropout(0.1, rng),
		nn.NewDense(128, 64, rng), nn.NewBatchNorm(64), nn.NewReLU(),
		nn.NewDense(64, k, rng),
	)
}

// TestSoftmaxTrainStepSteadyStateAllocs is the allocation gate for the
// classifier training step: once its buffers and the optimizer state have
// grown, a TNet step — gather, forward, softmax cross-entropy, the
// parameter-only backward, Adam — allocates nothing.
func TestSoftmaxTrainStepSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(9))
	x, y := blobs(200, 40, 5, 3, rng)
	tr := newSoftmaxTrainer(tnetLikeNet(40, 5, rng), x, y, 1e-3)
	_, batches := nn.MinibatchesInto(len(x), 64, rng, nil, nil)
	step := func() {
		for _, idx := range batches {
			if err := tr.step(idx); err != nil {
				t.Fatal(err)
			}
		}
	}
	step()
	if avg := testing.AllocsPerRun(10, step); avg != 0 {
		t.Errorf("steady-state training step allocates %.2f/op, want 0", avg)
	}
}

// fitBenchData is the 5GC Table I cell shape: 1360 rows of 442 features
// over 16 classes.
func fitBenchData() ([][]float64, []int) {
	return blobs(1360, 442, 16, 3, rand.New(rand.NewSource(1)))
}

// BenchmarkFitTNet times a TNet fit at the 5GC cell shape with the
// quick-scale epoch count; run with -benchmem.
func BenchmarkFitTNet(b *testing.B) {
	benchmarkFit(b, KindTNet)
}

// BenchmarkFitMLP is BenchmarkFitTNet for the MLP classifier.
func BenchmarkFitMLP(b *testing.B) {
	benchmarkFit(b, KindMLP)
}

func benchmarkFit(b *testing.B, kind Kind) {
	x, y := fitBenchData()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := New(kind, Options{Seed: 1, Epochs: 6})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Fit(x, y, 16); err != nil {
			b.Fatal(err)
		}
	}
}
