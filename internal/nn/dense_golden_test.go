package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameFloat is bitwise equality with every NaN equal to every other: the
// kernels pin each bit of every non-NaN result, while Go does not specify
// which operand's payload a NaN-producing operation propagates.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// refDenseBackwardSkip is the Dense backward with the zero-skipping weight
// gradient of the layer's definition (gw[j] += v·g only for v ≠ 0). It
// equals refDenseBackward whenever the gradient is finite; with ±Inf/NaN
// gradients the two differ, and the definition is this one.
func refDenseBackwardSkip(w []float64, in, out int, x, gradOut [][]float64) (gi [][]float64, gw, gb []float64) {
	gi, gw, gb = refDenseBackward(w, in, out, x, gradOut)
	for i := range gw {
		gw[i] = 0
	}
	for i, gRow := range gradOut {
		for j, v := range x[i] {
			if v == 0 {
				continue
			}
			gwRow := gw[j*out : (j+1)*out]
			for k, gv := range gRow {
				gwRow[k] += v * gv
			}
		}
	}
	return gi, gw, gb
}

// goldenInput draws a batch with the corner cases the tile kernels must
// keep exact: planted zeros, ReLU-style runs of +0, and −0 inputs.
func goldenInput(rng *rand.Rand, rows, cols int) [][]float64 {
	x := make([][]float64, rows)
	for i := range x {
		x[i] = make([]float64, cols)
		for j := range x[i] {
			switch v := rng.NormFloat64(); {
			case rng.Intn(9) == 0:
				x[i][j] = math.Copysign(0, -1)
			case i%2 == 1:
				x[i][j] = math.Max(v, 0) // runs of +0 after a ReLU
			default:
				x[i][j] = v
			}
		}
	}
	if rows > 0 && cols > 0 {
		x[0][0] = 0
		x[rows-1][cols-1] = 0
	}
	return x
}

// denseGoldenShapes covers the classifier shapes (batch 64, 442→128→64→16
// and a single-output head), widths that are not multiples of 4 or 8,
// and 1–7-row batches.
var denseGoldenShapes = [][3]int{
	{64, 442, 128}, {64, 128, 64}, {64, 64, 16}, {64, 64, 1},
	{1, 13, 7}, {2, 5, 3}, {3, 9, 11}, {4, 17, 12}, {5, 31, 33},
	{6, 3, 9}, {7, 8, 17}, {7, 33, 1}, {1, 1, 2}, {3, 40, 6}, {9, 7, 5},
}

// TestDenseTileKernelGolden pins the register-blocked Dense kernels —
// ForwardT, InferT, BackwardT and BackwardParamsT — against the retained
// reference implementations under both kernel bindings, across the
// classifier shapes, ragged tails, zero runs, a −0 bias, and ±Inf/NaN
// weights and gradients.
func TestDenseTileKernelGolden(t *testing.T) {
	initial := SetVectorKernels(true)
	defer SetVectorKernels(initial)
	for _, vector := range []bool{true, false} {
		SetVectorKernels(vector)
		for _, shape := range denseGoldenShapes {
			for _, corner := range []string{"plain", "negzero-bias", "nonfinite-weights", "nonfinite-grads"} {
				name := fmt.Sprintf("vector=%v/%dx%d->%d/%s", vector, shape[0], shape[1], shape[2], corner)
				t.Run(name, func(t *testing.T) {
					checkDenseGolden(t, shape[0], shape[1], shape[2], corner)
				})
			}
		}
	}
}

func checkDenseGolden(t *testing.T, rows, in, out int, corner string) {
	rng := rand.New(rand.NewSource(int64(rows*1000003 + in*1009 + out)))
	d := NewDense(in, out, rng)
	w, b := d.Params()[0], d.Params()[1]
	for k := range b.Data {
		b.Data[k] = rng.NormFloat64()
	}
	x := goldenInput(rng, rows, in)
	gradOut := randRows(rng, rows, out)
	switch corner {
	case "negzero-bias":
		b.Data[rng.Intn(out)] = math.Copysign(0, -1)
		if out > 1 {
			b.Data[0] = math.Copysign(0, -1)
		}
	case "nonfinite-weights":
		for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
			w.Data[rng.Intn(len(w.Data))] = v
		}
		// A non-finite weight on an input column that holds zeros.
		w.Data[0] = math.Inf(1)
	case "nonfinite-grads":
		gradOut[rng.Intn(rows)][rng.Intn(out)] = math.Inf(-1)
		gradOut[rows-1][0] = math.NaN()
		gradOut[0][out-1] = math.Inf(1)
	}
	var xt Tensor
	xt.SetFromRows(x)

	want := refDenseForward(w.Data, b.Data, out, x)
	if out == 1 {
		for i, row := range x {
			want[i][0] = b.Data[0] + vdotGo(row, w.Data)
		}
	}
	got := d.ForwardT(&xt, true)
	var s InferScratch
	inf := Infer(d, &xt, &s)
	for i := range want {
		sameFloats(t, fmt.Sprintf("forward row %d", i), got.Row(i), want[i])
		sameFloats(t, fmt.Sprintf("infer row %d", i), inf.Row(i), want[i])
	}

	var gt Tensor
	gt.SetFromRows(gradOut)
	wantGI, wantGW, wantGB := refDenseBackwardSkip(w.Data, in, out, x, gradOut)
	if out == 1 {
		// Single-output layers are defined without the zero-skip.
		_, wantGW, _ = refDenseBackward(w.Data, in, out, x, gradOut)
		for i := range wantGI {
			for j := range wantGI[i] {
				wantGI[i][j] = w.Data[j] * gradOut[i][0]
			}
		}
	}
	if corner != "nonfinite-grads" {
		_, plainGW, _ := refDenseBackward(w.Data, in, out, x, gradOut)
		sameFloats(t, "reference weight gradients", wantGW, plainGW)
	}
	ZeroGrads(d.Params())
	gi := d.BackwardT(&gt)
	for i := range wantGI {
		sameFloats(t, fmt.Sprintf("input gradient row %d", i), gi.Row(i), wantGI[i])
	}
	sameFloats(t, "weight gradient", w.Grad, wantGW)
	sameFloats(t, "bias gradient", b.Grad, wantGB)

	ZeroGrads(d.Params())
	d.BackwardParamsT(&gt)
	sameFloats(t, "params-only weight gradient", w.Grad, wantGW)
	sameFloats(t, "params-only bias gradient", b.Grad, wantGB)
}

// TestGemmKernelMatchesPortable pins the AVX tile kernel against its Go
// twin directly, over strided (transposed) operands and every row and
// column tail up to two full tiles.
func TestGemmKernelMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for m := 0; m <= 9; m++ {
		for n := 0; n <= 19; n++ {
			for _, k := range []int{0, 1, 3, 8} {
				a := kernelInput(rng, m*k+1)
				b := kernelInput(rng, k*n+1)
				c := kernelInput(rng, m*n+1)
				c2 := append([]float64(nil), c...)
				// A transposed: A(r,t) = a[t*m + r].
				nanGot := gemmAcc(c, n, a, 1, m, b, n, m, n, k)
				nanWant := gemmAccGo(c2, n, a, 1, m, b, n, m, n, k)
				sameFloats(t, fmt.Sprintf("gemm m=%d n=%d k=%d", m, n, k), c, c2)
				if nanGot != nanWant {
					t.Fatalf("gemm m=%d n=%d k=%d: NaN report %v, want %v", m, n, k, nanGot, nanWant)
				}
			}
		}
	}
	for _, n := range []int{0, 1, 15, 16, 17, 33, 128} {
		for nj := 0; nj <= 7; nj++ {
			a := kernelInput(rng, n)
			b := kernelInput(rng, nj*n+3)
			got, want := make([]float64, nj), make([]float64, nj)
			dotRows(got, a, b, n)
			dotRowsGo(want, a, b, n)
			sameFloats(t, fmt.Sprintf("dotRows n=%d nj=%d", n, nj), got, want)
		}
	}
}

// refAdamStep is the historical per-element Adam loop, kept as the golden
// reference for the vectorised update.
func refAdamStep(o *Adam, params []*Param, m, v map[*Param][]float64) {
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		mp, vp := m[p], v[p]
		for i := range p.Data {
			g := p.Grad[i]
			if o.WeightDecay != 0 {
				g += o.WeightDecay * p.Data[i]
			}
			mp[i] = o.Beta1*mp[i] + (1-o.Beta1)*g
			vp[i] = o.Beta2*vp[i] + (1-o.Beta2)*g*g
			mHat := mp[i] / bc1
			vHat := vp[i] / bc2
			p.Data[i] -= o.LR * mHat / (math.Sqrt(vHat) + o.Eps)
		}
		p.ZeroGrad()
	}
}

// TestAdamKernelGolden pins the vectorised Adam step bitwise against the
// historical scalar loop under both kernel bindings, with and without
// weight decay, across every 4-lane tail.
func TestAdamKernelGolden(t *testing.T) {
	initial := SetVectorKernels(true)
	defer SetVectorKernels(initial)
	for _, vector := range []bool{true, false} {
		SetVectorKernels(vector)
		for _, wd := range []float64{0, 1e-5} {
			rng := rand.New(rand.NewSource(17))
			var got, want []*Param
			for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 31, 128} {
				p := NewParam("p", n)
				for i := range p.Data {
					p.Data[i] = rng.NormFloat64()
				}
				q := &Param{Name: "q", Data: append([]float64(nil), p.Data...), Grad: make([]float64, n)}
				got, want = append(got, p), append(want, q)
			}
			opt, ref := NewAdam(1e-3, wd), NewAdam(1e-3, wd)
			m, v := map[*Param][]float64{}, map[*Param][]float64{}
			for _, q := range want {
				m[q], v[q] = make([]float64, len(q.Data)), make([]float64, len(q.Data))
			}
			for step := 0; step < 5; step++ {
				for i, p := range got {
					for j := range p.Grad {
						p.Grad[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
						if j%5 == 0 {
							p.Grad[j] = 0
						}
						want[i].Grad[j] = p.Grad[j]
					}
				}
				opt.Step(got)
				ref.t++
				refAdamStep(ref, want, m, v)
				for i := range got {
					what := fmt.Sprintf("vector=%v wd=%v step %d param %d", vector, wd, step, i)
					sameFloats(t, what+" data", got[i].Data, want[i].Data)
					sameFloats(t, what+" grad", got[i].Grad, want[i].Grad)
					sameFloats(t, what+" m", opt.m[got[i]], m[want[i]])
					sameFloats(t, what+" v", opt.v[got[i]], v[want[i]])
				}
			}
		}
	}
}

// TestSkipPredicates pins the bit-pattern scans behind the zero-skip
// exactness test against their float definitions.
func TestSkipPredicates(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []float64{0, negZero, 1, -1, 5e-324, -5e-324, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN()}
	for _, v := range vals {
		s := []float64{2, v, 3}
		if got, want := negZeroFree(s), !(v == 0 && math.Signbit(v)); got != want {
			t.Errorf("negZeroFree(%v) = %v, want %v", v, got, want)
		}
		if got, want := allFinite(s), !math.IsInf(v, 0) && !math.IsNaN(v); got != want {
			t.Errorf("allFinite(%v) = %v, want %v", v, got, want)
		}
	}
}

// BenchmarkDenseTrainStep is the classifier-shaped training step: batch
// 64 through 442→128→64→16 with batch norm and ReLU, softmax
// cross-entropy, the parameter-only root backward and Adam. Run with
// -benchmem: the step allocates nothing once warm.
func BenchmarkDenseTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	net := NewNetwork(
		NewDense(442, 128, rng), NewBatchNorm(128), NewReLU(),
		NewDense(128, 64, rng), NewBatchNorm(64), NewReLU(),
		NewDense(64, 16, rng),
	)
	opt := NewAdam(1e-3, 1e-5)
	params := net.Params()
	x := NewTensor(64, 442)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	y := make([]int, 64)
	for i := range y {
		y[i] = rng.Intn(16)
	}
	var grad Tensor
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := net.ForwardT(x, true)
		if _, err := SoftmaxCET(out, y, &grad); err != nil {
			b.Fatal(err)
		}
		net.BackwardParamsT(&grad)
		opt.Step(params)
	}
}

// BenchmarkDenseKernels times the three Dense products at the classifier
// shapes (batch 64) and reports multiply-adds per second.
func BenchmarkDenseKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, sh := range [][2]int{{442, 128}, {128, 64}, {64, 16}} {
		in, out := sh[0], sh[1]
		const rows = 64
		x := kernelInput(rng, rows*in)
		w := kernelInput(rng, in*out)
		g := kernelInput(rng, rows*out)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		c := make([]float64, max(rows*out, in*out, rows*in))
		madds := float64(rows * in * out)
		report := func(b *testing.B) {
			b.ReportMetric(madds*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gmadd/s")
		}
		b.Run(fmt.Sprintf("forward/%dx%d", in, out), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemmAcc(c, out, x, in, 1, w, out, rows, out, in)
			}
			report(b)
		})
		b.Run(fmt.Sprintf("weightgrad/%dx%d", in, out), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemmAcc(c, out, x, 1, in, g, out, in, out, rows)
			}
			report(b)
		})
		b.Run(fmt.Sprintf("inputgrad/%dx%d", in, out), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r := 0; r < rows; r++ {
					dotRows(c[r*in:(r+1)*in], g[r*out:(r+1)*out], w, out)
				}
			}
			report(b)
		})
	}
}
