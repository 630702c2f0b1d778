package models

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"netdrift/internal/nn"
)

// refGate is the original slice implementation of FeatureGate, kept
// verbatim as the golden reference for the tensor path: per-row u, z, σ
// and gradient loops over freshly allocated [][]float64.
type refGate struct {
	Dim, Rank int
	w1, w2, b *nn.Param

	input, sig, u [][]float64
}

func (g *refGate) Forward(x [][]float64) [][]float64 {
	g.input = x
	g.sig = make([][]float64, len(x))
	g.u = make([][]float64, len(x))
	out := make([][]float64, len(x))
	for i, row := range x {
		u := make([]float64, g.Rank)
		for j, v := range row {
			if v == 0 {
				continue
			}
			for m := 0; m < g.Rank; m++ {
				u[m] += g.w1.Data[m*g.Dim+j] * v
			}
		}
		z := make([]float64, g.Dim)
		copy(z, g.b.Data)
		for k := 0; k < g.Dim; k++ {
			w2Row := g.w2.Data[k*g.Rank : (k+1)*g.Rank]
			var s float64
			for m, um := range u {
				s += w2Row[m] * um
			}
			z[k] += s
		}
		s := make([]float64, g.Dim)
		o := make([]float64, g.Dim)
		for k := range z {
			s[k] = 1 / (1 + math.Exp(-z[k]))
			o[k] = row[k] * s[k]
		}
		g.u[i] = u
		g.sig[i] = s
		out[i] = o
	}
	return out
}

func (g *refGate) Backward(gradOut [][]float64) [][]float64 {
	gradIn := make([][]float64, len(gradOut))
	for i, gRow := range gradOut {
		x := g.input[i]
		s := g.sig[i]
		u := g.u[i]
		dz := make([]float64, g.Dim)
		for k := range dz {
			dz[k] = gRow[k] * x[k] * s[k] * (1 - s[k])
			g.b.Grad[k] += dz[k]
		}
		du := make([]float64, g.Rank)
		for k, dzk := range dz {
			if dzk == 0 {
				continue
			}
			w2Row := g.w2.Data[k*g.Rank : (k+1)*g.Rank]
			gw2Row := g.w2.Grad[k*g.Rank : (k+1)*g.Rank]
			for m := 0; m < g.Rank; m++ {
				du[m] += dzk * w2Row[m]
				gw2Row[m] += dzk * u[m]
			}
		}
		gi := make([]float64, g.Dim)
		for j := range gi {
			gi[j] = gRow[j] * s[j]
		}
		for m, dum := range du {
			if dum == 0 {
				continue
			}
			w1Row := g.w1.Data[m*g.Dim : (m+1)*g.Dim]
			gw1Row := g.w1.Grad[m*g.Dim : (m+1)*g.Dim]
			for j := 0; j < g.Dim; j++ {
				gi[j] += dum * w1Row[j]
				gw1Row[j] += dum * x[j]
			}
		}
		gradIn[i] = gi
	}
	return gradIn
}

// sameFloat is bitwise equality with every NaN equal to every other (Go
// leaves NaN payload propagation unspecified).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func sameRows(t *testing.T, what string, got *nn.Tensor, want [][]float64) {
	t.Helper()
	if got.Rows() != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, got.Rows(), len(want))
	}
	for i, w := range want {
		sameSlice(t, fmt.Sprintf("%s row %d", what, i), got.Row(i), w)
	}
}

func sameSlice(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for j := range want {
		if !sameFloat(got[j], want[j]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, j,
				got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

// gateCorners are the inputs that reach every zero-skip branch of the
// gate: zero and −0 features (u and dz skips), all-zero gradient rows (du
// skips), non-finite weights and gradients (the skipping fallbacks).
var gateCorners = []string{"plain", "zero-grad-row", "nonfinite-w1", "nonfinite-w2", "nonfinite-grad"}

// TestFeatureGateTensorMatchesReference pins ForwardT, InferT, BackwardT
// and BackwardParamsT bitwise against the original slice implementation
// under both kernel bindings, over gate widths below, at and above the
// rank cap (including the 442-feature 5GC width) and 1–7 and 64-row
// batches, on repeated calls through one gate (scratch reuse).
func TestFeatureGateTensorMatchesReference(t *testing.T) {
	initial := nn.SetVectorKernels(true)
	defer nn.SetVectorKernels(initial)
	for _, vector := range []bool{true, false} {
		nn.SetVectorKernels(vector)
		for _, dim := range []int{1, 3, 5, 13, 33, 442} {
			for _, corner := range gateCorners {
				t.Run(fmt.Sprintf("vector=%v/dim=%d/%s", vector, dim, corner), func(t *testing.T) {
					checkGateGolden(t, dim, corner)
				})
			}
		}
	}
}

func checkGateGolden(t *testing.T, dim int, corner string) {
	rng := rand.New(rand.NewSource(int64(dim)))
	g := NewFeatureGate(dim, rng)
	ref := &refGate{Dim: g.Dim, Rank: g.Rank, w1: g.w1, w2: g.w2, b: g.b}
	switch corner {
	case "nonfinite-w1":
		g.w1.Data[0] = math.Inf(1)
		g.w1.Data[len(g.w1.Data)-1] = math.NaN()
	case "nonfinite-w2":
		g.w2.Data[rng.Intn(len(g.w2.Data))] = math.Inf(-1)
	}
	var s nn.InferScratch
	for _, rows := range []int{1, 2, 3, 4, 5, 7, 64} {
		x := make([][]float64, rows)
		gradOut := make([][]float64, rows)
		for i := range x {
			x[i] = make([]float64, dim)
			gradOut[i] = make([]float64, dim)
			for j := range x[i] {
				switch rng.Intn(6) {
				case 0:
					x[i][j] = 0
				case 1:
					x[i][j] = math.Copysign(0, -1)
				default:
					x[i][j] = rng.NormFloat64()
				}
				gradOut[i][j] = rng.NormFloat64()
			}
		}
		switch corner {
		case "zero-grad-row":
			for j := range gradOut[rows-1] {
				gradOut[rows-1][j] = 0
			}
		case "nonfinite-grad":
			gradOut[0][dim-1] = math.Inf(1)
			gradOut[rows-1][0] = math.NaN()
		}
		var xt, gt nn.Tensor
		xt.SetFromRows(x)
		gt.SetFromRows(gradOut)

		want := ref.Forward(x)
		sameRows(t, fmt.Sprintf("rows=%d ForwardT", rows), g.ForwardT(&xt, true), want)
		sameRows(t, fmt.Sprintf("rows=%d InferT", rows), nn.Infer(g, &xt, &s), want)

		nn.ZeroGrads(g.Params())
		wantGI := ref.Backward(gradOut)
		wantGrads := make([][]float64, 3)
		for i, p := range g.Params() {
			wantGrads[i] = append([]float64(nil), p.Grad...)
		}
		nn.ZeroGrads(g.Params())
		sameRows(t, fmt.Sprintf("rows=%d BackwardT", rows), g.BackwardT(&gt), wantGI)
		for i, p := range g.Params() {
			sameSlice(t, fmt.Sprintf("rows=%d %s grad", rows, p.Name), p.Grad, wantGrads[i])
		}
		nn.ZeroGrads(g.Params())
		g.BackwardParamsT(&gt)
		for i, p := range g.Params() {
			sameSlice(t, fmt.Sprintf("rows=%d params-only %s grad", rows, p.Name), p.Grad, wantGrads[i])
		}
	}
}
