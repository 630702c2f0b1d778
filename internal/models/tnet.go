package models

import (
	"fmt"
	"math"
	"math/rand"

	"netdrift/internal/nn"
)

// FeatureGate is an input-conditioned elementwise gate with a low-rank
// gating map:
//
//	u = W1·x,  z = W2·u + b,  y = x ⊙ σ(z)
//
// It lets the network softly select informative telemetry columns per
// sample — the mechanism that makes TNet a *tabular* architecture rather
// than a plain MLP (attention-like feature selection, cf. TabNet/TabularNet
// designs). The rank-R factorization keeps the gate O(d·R) instead of
// O(d²), which matters on 442-feature telemetry.
//
// Every product runs on the nn tile kernel (nn.MatMulAdd/MatMulAddTN) in
// the gate's defining arithmetic order: u and the du/dW1/dW2 products are
// axpy-ordered and skip zero v, dz and du terms; z = b + s with s summed
// sequentially over the rank. Activations and gradients live in
// layer-owned tensors reused across batches.
type FeatureGate struct {
	Dim  int
	Rank int

	w1, w2, b *nn.Param // w1: Rank×Dim, w2: Dim×Rank

	input    *nn.Tensor // caller-owned; stable between ForwardT and BackwardT
	w1t, w2t []float64  // W1ᵀ (Dim×Rank) and W2ᵀ (Rank×Dim) for the forward products
	u        nn.Tensor  // rows × Rank
	sig      nn.Tensor  // rows × Dim: σ(z)
	out      nn.Tensor
	dz, du   nn.Tensor
	gradIn   nn.Tensor

	legacyIn, legacyGrad nn.Tensor
}

var (
	_ nn.TensorLayer     = (*FeatureGate)(nil)
	_ nn.Inferencer      = (*FeatureGate)(nil)
	_ nn.ParamBackwarder = (*FeatureGate)(nil)
)

// NewFeatureGate creates a gate over dim features with a default rank of
// min(32, dim).
func NewFeatureGate(dim int, rng *rand.Rand) *FeatureGate {
	rank := 32
	if rank > dim {
		rank = dim
	}
	g := &FeatureGate{
		Dim:  dim,
		Rank: rank,
		w1:   nn.NewParam(fmt.Sprintf("gate%d.w1", dim), rank*dim),
		w2:   nn.NewParam(fmt.Sprintf("gate%d.w2", dim), dim*rank),
		b:    nn.NewParam(fmt.Sprintf("gate%d.b", dim), dim),
		w1t:  make([]float64, dim*rank),
		w2t:  make([]float64, rank*dim),
	}
	lim1 := math.Sqrt(6.0 / float64(dim))
	for i := range g.w1.Data {
		g.w1.Data[i] = (rng.Float64()*2 - 1) * lim1
	}
	lim2 := math.Sqrt(6.0/float64(rank)) * 0.5
	for i := range g.w2.Data {
		g.w2.Data[i] = (rng.Float64()*2 - 1) * lim2
	}
	// Bias the gates open initially so early training sees all features.
	for i := range g.b.Data {
		g.b.Data[i] = 1
	}
	return g
}

// Forward applies the gate to a batch (slice adapter over ForwardT).
func (g *FeatureGate) Forward(x [][]float64, train bool) [][]float64 {
	if len(x) == 0 {
		return nil
	}
	g.legacyIn.SetFromRows(x)
	return g.ForwardT(&g.legacyIn, train).ToRows()
}

// Backward propagates through both the multiplicative path and the
// low-rank gate map (slice adapter over BackwardT).
func (g *FeatureGate) Backward(gradOut [][]float64) [][]float64 {
	if len(gradOut) == 0 {
		return nil
	}
	g.legacyGrad.SetFromRows(gradOut)
	return g.BackwardT(&g.legacyGrad).ToRows()
}

// ForwardT implements nn.TensorLayer. The gate has no train/eval
// difference; the input is cached for BackwardT.
func (g *FeatureGate) ForwardT(x *nn.Tensor, _ bool) *nn.Tensor {
	g.input = x
	transpose(g.w1t, g.w1.Data, g.Rank, g.Dim)
	transpose(g.w2t, g.w2.Data, g.Dim, g.Rank)
	return g.gate(x, g.w1t, g.w2t, &g.u, &g.sig, &g.out)
}

// InferT implements nn.Inferencer: the forward over arena buffers,
// including the transposed weight copies, so nothing on the gate is
// written and concurrent inference is safe.
func (g *FeatureGate) InferT(x *nn.Tensor, s *nn.InferScratch) *nn.Tensor {
	w1t := s.Grab().Reset(g.Dim, g.Rank).Data()
	w2t := s.Grab().Reset(g.Rank, g.Dim).Data()
	transpose(w1t, g.w1.Data, g.Rank, g.Dim)
	transpose(w2t, g.w2.Data, g.Dim, g.Rank)
	return g.gate(x, w1t, w2t, s.Grab(), s.Grab(), s.Grab())
}

// gate computes u = W1·x (skipping zero inputs), s = W2·u, σ(b + s) into
// sig and x ⊙ σ into out, and returns out.
func (g *FeatureGate) gate(x *nn.Tensor, w1t, w2t []float64, u, sig, out *nn.Tensor) *nn.Tensor {
	rows := x.Rows()
	nn.MatMulAdd(u.ZeroReset(rows, g.Rank), x, w1t, true)
	nn.MatMulAdd(sig.ZeroReset(rows, g.Dim), u, w2t, false)
	out.Reset(rows, g.Dim)
	for i := 0; i < rows; i++ {
		row, sr, o := x.Row(i)[:g.Dim], sig.Row(i), out.Row(i)
		for k, s := range sr {
			sk := 1 / (1 + math.Exp(-(g.b.Data[k] + s)))
			sr[k] = sk
			o[k] = row[k] * sk
		}
	}
	return out
}

// BackwardT implements nn.TensorLayer: parameter gradients plus the
// input gradient gi = g⊙s + W1ᵀ·du.
func (g *FeatureGate) BackwardT(gradOut *nn.Tensor) *nn.Tensor {
	du := g.backward(gradOut)
	gi := g.gradIn.Reset(gradOut.Rows(), g.Dim)
	for i := 0; i < gradOut.Rows(); i++ {
		gr, sr, o := gradOut.Row(i), g.sig.Row(i), gi.Row(i)
		for j := range o {
			o[j] = gr[j] * sr[j]
		}
	}
	nn.MatMulAdd(gi, du, g.w1.Data, true)
	return gi
}

// BackwardParamsT implements nn.ParamBackwarder: the parameter gradients
// of BackwardT without the input gradient (TNet's root layer).
func (g *FeatureGate) BackwardParamsT(gradOut *nn.Tensor) { g.backward(gradOut) }

// backward accumulates db, dW2 and dW1 and returns du.
func (g *FeatureGate) backward(gradOut *nn.Tensor) *nn.Tensor {
	rows := gradOut.Rows()
	// dL/dz_k = g_k·x_k·s_k(1-s_k), summed into db row by row.
	dz := g.dz.Reset(rows, g.Dim)
	for i := 0; i < rows; i++ {
		gr, x, s, d := gradOut.Row(i), g.input.Row(i), g.sig.Row(i), dz.Row(i)
		for k := range d {
			d[k] = gr[k] * x[k] * s[k] * (1 - s[k])
			g.b.Grad[k] += d[k]
		}
	}
	// du = W2ᵀ·dz; dW2[k][m] += dz_k·u_m; dW1[m][j] += du_m·x_j.
	du := g.du.ZeroReset(rows, g.Rank)
	nn.MatMulAdd(du, dz, g.w2.Data, true)
	nn.MatMulAddTN(g.w2.Grad, dz, &g.u, true)
	nn.MatMulAddTN(g.w1.Grad, du, g.input, true)
	return du
}

// transpose writes the cols×rows transpose of the row-major rows×cols
// matrix src into dst.
func transpose(dst, src []float64, rows, cols int) {
	for r := 0; r < rows; r++ {
		for c, v := range src[r*cols : (r+1)*cols] {
			dst[c*rows+r] = v
		}
	}
}

// Params returns the gate weights.
func (g *FeatureGate) Params() []*nn.Param { return []*nn.Param{g.w1, g.w2, g.b} }

// TNet is the deep tabular classifier used as the strongest model family in
// Table I: a feature gate followed by a batch-normalized MLP trunk.
type TNet struct {
	opts Options

	net        *nn.Network
	numClasses int
	in         int
}

var _ Classifier = (*TNet)(nil)

// NewTNet creates an untrained TNet.
func NewTNet(opts Options) *TNet {
	if opts.Epochs == 0 {
		opts.Epochs = 35
	}
	return &TNet{opts: opts}
}

// Name implements Classifier.
func (t *TNet) Name() string { return "TNet" }

// Fit trains the gated tabular network.
func (t *TNet) Fit(x [][]float64, y []int, numClasses int) error {
	if err := validateFit(x, y, numClasses); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(t.opts.Seed))
	t.in = len(x[0])
	t.numClasses = numClasses
	t.net = nn.NewNetwork(
		NewFeatureGate(t.in, rng),
		nn.NewDense(t.in, 128, rng),
		nn.NewBatchNorm(128),
		nn.NewReLU(),
		nn.NewDropout(0.1, rng),
		nn.NewDense(128, 64, rng),
		nn.NewBatchNorm(64),
		nn.NewReLU(),
		nn.NewDense(64, numClasses, rng),
	)
	return trainSoftmaxNet(t.net, x, y, t.opts.Epochs, 64, 1e-3, rng)
}

// PredictProba implements Classifier.
func (t *TNet) PredictProba(x [][]float64) ([][]float64, error) {
	if t.net == nil {
		return nil, ErrNotFitted
	}
	return predictSoftmax(t.net, x, t.in)
}
