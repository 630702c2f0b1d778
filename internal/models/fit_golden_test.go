package models

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"netdrift/internal/nn"
)

// goldenFitData draws a training and a 43-row probe set (row counts that
// leave 1–3-row tails for the tile kernels) of the given width with a zero
// planted in every fifth feature (so the zero-skips of the Dense
// and gate products are exercised) and one −0.
func goldenFitData(n, d, k int, seed int64) (x [][]float64, y []int, probe [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	x, y = blobs(n, d, k, 3, rng)
	probe, _ = blobs(43, d, k, 3, rng)
	for _, rows := range [][][]float64{x, probe} {
		for i, row := range rows {
			for j := range row {
				if (i+j)%5 == 0 {
					row[j] = 0
				}
			}
		}
	}
	x[1][2] = math.Copysign(0, -1)
	return x, y, probe
}

// probaHash is an FNV-64a digest of the probability bits, row-major.
func probaHash(p [][]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, row := range p {
		for _, v := range row {
			bits := math.Float64bits(v)
			for i := range b {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestNeuralFitPredictGolden pins TNet and MLP PredictProba bits after Fit
// to digests recorded before the tensor-path training step, the tile
// kernels and the tensor FeatureGate existed: the whole training loop —
// gather, forward, softmax cross-entropy, the parameter-only root
// backward, Adam — and the inference path must reproduce them exactly,
// under both kernel bindings.
func TestNeuralFitPredictGolden(t *testing.T) {
	initial := nn.SetVectorKernels(true)
	defer nn.SetVectorKernels(initial)
	cases := []struct {
		name       string
		kind       Kind
		n, d, k    int
		epochs     int
		wantDigest uint64
	}{
		{"TNet/12x4", KindTNet, 163, 12, 4, 4, 0x0e6093db49fccad1},
		{"MLP/12x4", KindMLP, 163, 12, 4, 4, 0x569438f835054a53},
		{"TNet/442x16", KindTNet, 99, 442, 16, 3, 0x78821ec34ef006c9},
		{"MLP/442x16", KindMLP, 99, 442, 16, 3, 0xa81a1a2e8217b739},
	}
	for _, vector := range []bool{true, false} {
		nn.SetVectorKernels(vector)
		for _, tc := range cases {
			t.Run(fmt.Sprintf("vector=%v/%s", vector, tc.name), func(t *testing.T) {
				x, y, probe := goldenFitData(tc.n, tc.d, tc.k, int64(tc.d))
				c, err := New(tc.kind, Options{Seed: 11, Epochs: tc.epochs})
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Fit(x, y, tc.k); err != nil {
					t.Fatal(err)
				}
				p, err := c.PredictProba(probe)
				if err != nil {
					t.Fatal(err)
				}
				if got := probaHash(p); got != tc.wantDigest {
					t.Errorf("probability digest %#x, want %#x (p[0] = %v)", got, tc.wantDigest, p[0])
				}
			})
		}
	}
}

// TestTreeFitPredictGolden pins RF and XGB PredictProba bits after Fit to
// digests recorded before the rank-keyed forest split search and the
// round-shared boosted-tree root segments existed. Every third feature is
// quantized so the split searches meet long runs of tied values, next to
// the planted zeros and the −0 of goldenFitData.
func TestTreeFitPredictGolden(t *testing.T) {
	cases := []struct {
		name       string
		kind       Kind
		n, d, k    int
		trees      int
		wantDigest uint64
	}{
		{"RF/12x4", KindRF, 163, 12, 4, 10, 0x53575f88eb5eb3a2},
		{"RF/442x16", KindRF, 240, 442, 16, 6, 0x6beb65ec11ffdcf3},
		{"XGB/12x4", KindXGB, 163, 12, 4, 10, 0xd082b991c320db46},
		{"XGB/442x16", KindXGB, 240, 442, 16, 4, 0x809218cbf1474f4b},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x, y, probe := goldenFitData(tc.n, tc.d, tc.k, int64(tc.d))
			for _, row := range x {
				for j := 0; j < len(row); j += 3 {
					row[j] = math.Round(row[j]*2) / 2
				}
			}
			c, err := New(tc.kind, Options{Seed: 11, Trees: tc.trees})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Fit(x, y, tc.k); err != nil {
				t.Fatal(err)
			}
			p, err := c.PredictProba(probe)
			if err != nil {
				t.Fatal(err)
			}
			if got := probaHash(p); got != tc.wantDigest {
				t.Errorf("probability digest %#x, want %#x (p[0] = %v)", got, tc.wantDigest, p[0])
			}
		})
	}
}
