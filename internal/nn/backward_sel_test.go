package nn

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// gradState copies every parameter gradient of params.
func gradState(params []*Param) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = append([]float64(nil), p.Grad...)
	}
	return out
}

// fillGrads writes a random sentinel into every parameter gradient.
func fillGrads(rng *rand.Rand, params []*Param) {
	for _, p := range params {
		for i := range p.Grad {
			p.Grad[i] = rng.NormFloat64()
		}
	}
}

func sameGrads(t *testing.T, what string, params []*Param, want [][]float64) {
	t.Helper()
	for i, p := range params {
		sameFloats(t, fmt.Sprintf("%s: %s gradient", what, p.Name), p.Grad, want[i])
	}
}

// sameWindow checks that got holds columns [lo, hi) of full, row by row
// (nil for an empty window).
func sameWindow(t *testing.T, what string, got, full *Tensor, lo, hi int) {
	t.Helper()
	if lo == hi {
		if got != nil {
			t.Fatalf("%s: empty window returned a %dx%d tensor", what, got.rows, got.cols)
		}
		return
	}
	if got == nil || got.rows != full.rows || got.cols != hi-lo {
		t.Fatalf("%s: window [%d, %d) returned %v, want %dx%d", what, lo, hi, got, full.rows, hi-lo)
	}
	for i := 0; i < full.rows; i++ {
		sameFloats(t, fmt.Sprintf("%s row %d", what, i), got.Row(i), full.Row(i)[lo:hi])
	}
}

// checkBackwardSel pins BackwardSelT on a layer whose forward has run:
// for every window, the input-only pass returns exactly those columns of
// BackwardT's input gradient and leaves every Grad untouched; the
// parameter pass (when params allows it) also accumulates BackwardT's
// parameter gradients; BackwardParamsT accumulates them too.
func checkBackwardSel(t *testing.T, rng *rand.Rand, l TensorLayer, gradOut *Tensor, windows [][2]int, inputOnly bool) {
	t.Helper()
	params := l.Params()
	ZeroGrads(params)
	full := l.BackwardT(gradOut)
	full = &Tensor{rows: full.rows, cols: full.cols, data: append([]float64(nil), full.data...)}
	want := gradState(params)

	ZeroGrads(params)
	l.(ParamBackwarder).BackwardParamsT(gradOut)
	sameGrads(t, "BackwardParamsT", params, want)

	for _, w := range windows {
		lo, hi := w[0], w[1]
		what := fmt.Sprintf("window [%d, %d)", lo, hi)
		ZeroGrads(params)
		got := BackwardSelT(l, gradOut, true, lo, hi)
		sameWindow(t, what+" with params", got, full, lo, hi)
		sameGrads(t, what+" with params", params, want)

		if !inputOnly {
			continue
		}
		fillGrads(rng, params)
		sentinel := gradState(params)
		got = BackwardSelT(l, gradOut, false, lo, hi)
		sameWindow(t, what+" input only", got, full, lo, hi)
		sameGrads(t, what+" input only (untouched)", params, sentinel)
	}
}

// TestBackwardSelGolden pins the selective backward under both kernel
// bindings: Dense with Out > 1 and Out == 1 and a narrow input, the
// discriminator-shaped Network, and the generator-shaped SkipConcat stack,
// over empty, full, leading, inner and trailing windows.
func TestBackwardSelGolden(t *testing.T) {
	initial := SetVectorKernels(true)
	defer SetVectorKernels(initial)
	for _, vector := range []bool{true, false} {
		SetVectorKernels(vector)
		t.Run(fmt.Sprintf("vector=%v", vector), func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			// rows, In, Out, input columns (< In: the narrow input).
			for _, shape := range [][4]int{
				{7, 40, 33, 40}, {64, 442, 128, 442}, {5, 31, 1, 31}, {4, 17, 12, 11}, {3, 9, 1, 6},
			} {
				rows, in, out, cols := shape[0], shape[1], shape[2], shape[3]
				t.Run(fmt.Sprintf("dense/%dx%d->%d/cols%d", rows, in, out, cols), func(t *testing.T) {
					d := NewDense(in, out, rng)
					var x, g Tensor
					x.SetFromRows(goldenInput(rng, rows, cols))
					g.SetFromRows(randRows(rng, rows, out))
					d.ForwardT(&x, true)
					windows := [][2]int{{0, 0}, {0, in}, {0, 1}, {2, 7}, {in - 3, in}, {cols / 2, in}, {cols, in}}
					checkBackwardSel(t, rng, d, &g, windows, true)
				})
			}

			t.Run("network", func(t *testing.T) {
				const rows, in, h = 9, 47, 35
				net := NewNetwork(
					NewDense(in, h, rng), NewLeakyReLU(0.2), NewDropout(0.3, rng),
					NewDense(h, h, rng), NewLeakyReLU(0.2), NewDropout(0.3, rng),
					NewDense(h, 1, rng),
				)
				var x, g Tensor
				x.SetFromRows(goldenInput(rng, rows, in))
				g.SetFromRows(randRows(rng, rows, 1))
				net.ForwardT(&x, true)
				windows := [][2]int{{0, 0}, {0, in}, {30, 40}, {40, in}}
				checkBackwardSel(t, rng, net, &g, windows, true)
			})

			t.Run("skipconcat", func(t *testing.T) {
				const rows, in, h, out = 8, 29, 24, 5
				net := NewNetwork(
					NewSkipConcat(NewNetwork(
						NewDense(in, h, rng), NewBatchNorm(h), NewReLU(),
						NewDense(h, h, rng), NewBatchNorm(h), NewReLU(),
					)),
					NewDense(h+in, out, rng),
					NewTanh(),
				)
				var x, g Tensor
				x.SetFromRows(goldenInput(rng, rows, in))
				g.SetFromRows(randRows(rng, rows, out))
				net.ForwardT(&x, true)
				windows := [][2]int{{0, 0}, {0, in}, {25, in}, {3, 11}}
				// BatchNorm has no input-only backward: parameter passes only.
				checkBackwardSel(t, rng, net, &g, windows, false)
				skip := net.Layers[0].(*SkipConcat)
				checkBackwardSel(t, rng, skip, net.Layers[1].(*Dense).BackwardT(&g), windows, false)
			})
		})
	}
}

// TestBackwardSelRefusals pins what the selective backward will not do:
// skip the parameter gradients of a layer that has no input-only backward
// (BatchNorm), or narrow the input gradient of a layer that cannot.
func TestBackwardSelRefusals(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mustPanic := func(what, want string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", what)
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
				t.Fatalf("%s: panic %q, want it to mention %q", what, msg, want)
			}
		}()
		f()
	}
	var x, g Tensor
	x.SetFromRows(randRows(rng, 4, 6))
	g.SetFromRows(randRows(rng, 4, 3))

	bnNet := NewNetwork(NewDense(6, 3, rng), NewBatchNorm(3))
	bnNet.ForwardT(&x, true)
	mustPanic("batchnorm input-only", "no input-only backward", func() {
		BackwardSelT(bnNet, &g, false, 0, 6)
	})

	act := NewNetwork(NewTanh())
	act.ForwardT(&x, true)
	var g6 Tensor
	g6.SetFromRows(randRows(rng, 4, 6))
	mustPanic("activation sub-window", "no windowed input gradient", func() {
		BackwardSelT(act, &g6, false, 1, 3)
	})
	if got := BackwardSelT(act, &g6, false, 0, allCols); got == nil || got.cols != 6 {
		t.Fatalf("activation full window: %v", got)
	}
	mustPanic("negative window", "input-gradient window", func() {
		BackwardSelT(act, &g6, true, -1, 2)
	})
}
