package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Layer is a differentiable network stage. Forward caches whatever Backward
// needs; Backward consumes the gradient w.r.t. the layer output,
// accumulates parameter gradients, and returns the gradient w.r.t. the
// layer input. A layer instance processes one batch at a time (the usual
// sequential-training contract).
type Layer interface {
	Forward(x [][]float64, train bool) [][]float64
	Backward(gradOut [][]float64) [][]float64
	Params() []*Param
}

// TensorLayer is the flat hot path implemented by every built-in layer:
// ForwardT/BackwardT run the same arithmetic as Forward/Backward (bit for
// bit — pinned by the golden tests in tensor_test.go) over row-major Tensor
// batches, writing into per-layer scratch buffers that are reused across
// calls. The returned tensor is the layer's scratch (or, for identity
// layers, the input itself) and is valid until the layer's next call.
type TensorLayer interface {
	Layer
	ForwardT(x *Tensor, train bool) *Tensor
	BackwardT(gradOut *Tensor) *Tensor
}

// legacyIO is the conversion scratch behind the slice-of-slices adapter:
// the old Forward/Backward API is a thin wrapper that copies into a reusable
// input tensor, runs the flat kernel, and copies the result out fresh
// (callers own and may retain the returned rows, as before).
type legacyIO struct {
	in, grad Tensor
}

func legacyForward(l TensorLayer, io *legacyIO, x [][]float64, train bool) [][]float64 {
	if len(x) == 0 {
		return x
	}
	io.in.SetFromRows(x)
	return l.ForwardT(&io.in, train).ToRows()
}

func legacyBackward(l TensorLayer, io *legacyIO, gradOut [][]float64) [][]float64 {
	if len(gradOut) == 0 {
		return gradOut
	}
	io.grad.SetFromRows(gradOut)
	return l.BackwardT(&io.grad).ToRows()
}

// ParamBackwarder is implemented by layers that can accumulate their
// parameter gradients without producing the input gradient. A training
// loop whose root input needs no gradient calls BackwardParamsT on the
// root (see Network.BackwardParamsT) and skips that product entirely.
// The accumulated parameter gradients are bit-identical to BackwardT's.
// For Dense, SkipConcat and Network it is BackwardSelT with params set
// and an empty window.
type ParamBackwarder interface {
	BackwardParamsT(gradOut *Tensor)
}

// allCols is the window upper bound that selects every input-gradient
// column: each layer clamps hi to its input width.
const allCols = math.MaxInt

// selectiveBackwarder is the selective backward of the layers that can
// skip parts of it (Dense, SkipConcat, Network); see BackwardSelT.
type selectiveBackwarder interface {
	backwardSel(gradOut *Tensor, params bool, lo, hi int) *Tensor
}

// BackwardSelT is the selective backward pass: it runs gradOut back
// through l, accumulates parameter gradients only when params is set,
// and returns only columns [lo, hi) of the gradient w.r.t. l's input, as
// a rows × (hi−lo) tensor (nil when lo ≥ hi). hi is clamped to the input
// width. BackwardT is the case (params, every column) and BackwardParamsT
// the case (params, no column); every result bit equals the same bit of
// BackwardT's, because each input-gradient column and each parameter
// gradient is computed independently of the others.
//
// Inside a Network every layer but the first still produces its whole
// input gradient, which the layer below it reads. A layer that has
// parameters but no input-only backward (BatchNorm, or a custom layer) is
// refused with a panic when params is unset: its backward would
// accumulate into gradients nobody asked for. A layer without a
// selective backward cannot narrow its input gradient either; asking it
// for a strict sub-window panics.
//
// The returned tensor is the layer's scratch, valid until its next call;
// the caller may modify it in place.
func BackwardSelT(l Layer, gradOut *Tensor, params bool, lo, hi int) *Tensor {
	if lo < 0 || hi < lo {
		panic(fmt.Sprintf("nn: input-gradient window [%d, %d)", lo, hi))
	}
	if !params && lo == hi {
		return nil
	}
	if sb, ok := l.(selectiveBackwarder); ok {
		return sb.backwardSel(gradOut, params, lo, hi)
	}
	if lo == hi {
		if pb, ok := l.(ParamBackwarder); ok {
			pb.BackwardParamsT(gradOut)
		} else if len(l.Params()) > 0 {
			// Parameter gradients need the full pass; the input gradient
			// is dropped.
			LayerBackwardT(l, gradOut)
		}
		return nil
	}
	if !params && len(l.Params()) > 0 {
		panic(fmt.Sprintf("nn: %T has no input-only backward", l))
	}
	return wholeWindow(l, LayerBackwardT(l, gradOut), lo, hi)
}

// wholeWindow returns the input gradient g of l when [lo, hi) covers all
// of its columns, and panics otherwise: l cannot produce a narrower one.
func wholeWindow(l Layer, g *Tensor, lo, hi int) *Tensor {
	if lo != 0 || hi < g.cols {
		panic(fmt.Sprintf("nn: %T has no windowed input gradient (window [%d, %d) of %d columns)", l, lo, hi, g.cols))
	}
	return g
}

// LayerForwardT runs l's flat path, adapting through the slice API for
// custom layers that do not implement TensorLayer (the compat path
// allocates; every layer in this package takes the flat path).
func LayerForwardT(l Layer, x *Tensor, train bool) *Tensor {
	if tl, ok := l.(TensorLayer); ok {
		return tl.ForwardT(x, train)
	}
	out := &Tensor{}
	return out.SetFromRows(l.Forward(x.ToRows(), train))
}

// LayerBackwardT is the backward counterpart of LayerForwardT.
func LayerBackwardT(l Layer, gradOut *Tensor) *Tensor {
	if tl, ok := l.(TensorLayer); ok {
		return tl.BackwardT(gradOut)
	}
	out := &Tensor{}
	return out.SetFromRows(l.Backward(gradOut.ToRows()))
}

// Dense is a fully-connected layer: y = x·Wᵀ + b.
type Dense struct {
	In, Out int

	w, b   *Param
	input  *Tensor // caller-owned; stable between ForwardT and BackwardT
	out    Tensor
	gradIn Tensor
	legacy legacyIO
}

var (
	_ TensorLayer         = (*Dense)(nil)
	_ ParamBackwarder     = (*Dense)(nil)
	_ selectiveBackwarder = (*Dense)(nil)
)

// NewDense creates a dense layer with He-uniform initialization.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid dense shape %dx%d", in, out))
	}
	d := &Dense{
		In:  in,
		Out: out,
		w:   NewParam(fmt.Sprintf("dense%dx%d.w", in, out), in*out),
		b:   NewParam(fmt.Sprintf("dense%dx%d.b", in, out), out),
	}
	limit := math.Sqrt(6.0 / float64(in))
	for i := range d.w.Data {
		d.w.Data[i] = (rng.Float64()*2 - 1) * limit
	}
	return d
}

// Forward computes the affine map for a batch.
func (d *Dense) Forward(x [][]float64, train bool) [][]float64 {
	return legacyForward(d, &d.legacy, x, train)
}

// ForwardT computes the affine map in place.
func (d *Dense) ForwardT(x *Tensor, _ bool) *Tensor {
	d.input = x
	out := d.out.Reset(x.rows, d.Out)
	d.forwardInto(x, out)
	return out
}

// forwardInto writes the affine map of x into out (already shaped
// x.rows × Out). It is the one forward implementation behind ForwardT and
// InferT. The DEFINITION for Out > 1: every output row starts from the
// bias and adds v·W[j] for each input v ≠ 0 in ascending j, one rounded
// multiply and one rounded add per term (the zero-skip). Single-output
// layers (the discriminator head) are DEFINED as b + vdot(row, w), with
// no zero-skip.
//
// The tile kernel adds every term, zeros included. That is exact under
// two conditions (DESIGN.md §5f rule 5): no accumulator is ever −0 —
// true when no bias is −0, since an IEEE sum is −0 only when both
// addends are — and no zero input meets a non-finite weight. The first
// is checked per call on the bias (O(Out)); the second shows itself,
// because 0·(±Inf or NaN) is NaN and a NaN accumulator stays NaN, so
// only rows holding a NaN are recomputed with the skipping loop.
func (d *Dense) forwardInto(x, out *Tensor) {
	if d.Out == 1 {
		for i := 0; i < x.rows; i++ {
			out.data[i] = d.b.Data[0] + vdot(x.Row(i), d.w.Data)
		}
		return
	}
	for i := 0; i < x.rows; i++ {
		copy(out.Row(i), d.b.Data)
	}
	if !negZeroFree(d.b.Data) {
		for i := 0; i < x.rows; i++ {
			d.rowExact(x.Row(i), out.Row(i))
		}
		return
	}
	if !gemmAcc(out.data, d.Out, x.data, x.cols, 1, d.w.Data, d.Out, x.rows, d.Out, x.cols) {
		return
	}
	for i := 0; i < x.rows; i++ {
		if o := out.Row(i); !nanFree(o) {
			copy(o, d.b.Data)
			d.rowExact(x.Row(i), o)
		}
	}
}

// rowExact adds the zero-skipping terms of one input row to o, which
// holds the bias: the reference loop of the Dense definition.
func (d *Dense) rowExact(row, o []float64) {
	for j, v := range row {
		if v != 0 {
			axpy1(v, d.w.Data[j*d.Out:(j+1)*d.Out], o)
		}
	}
}

// Backward accumulates dL/dW, dL/db and returns dL/dx.
func (d *Dense) Backward(gradOut [][]float64) [][]float64 {
	return legacyBackward(d, &d.legacy, gradOut)
}

// BackwardT accumulates dL/dW, dL/db and returns dL/dx in place.
func (d *Dense) BackwardT(gradOut *Tensor) *Tensor {
	return d.backwardSel(gradOut, true, 0, d.In)
}

// BackwardParamsT implements ParamBackwarder: it accumulates dL/dW and
// dL/db exactly as BackwardT does, without producing dL/dx.
func (d *Dense) BackwardParamsT(gradOut *Tensor) {
	d.backwardSel(gradOut, true, 0, 0)
}

// backwardSel is the selective backward (see BackwardSelT). Column j of
// dL/dx reads only weight row j, so a window [lo, hi) runs the same
// per-column products over weight rows [lo, hi) and nothing else.
func (d *Dense) backwardSel(gradOut *Tensor, params bool, lo, hi int) *Tensor {
	var gradIn *Tensor
	if hi = min(hi, d.In); lo < hi {
		gradIn = d.inputGrad(gradOut, lo, hi)
	}
	if params {
		d.paramGrads(gradOut)
	}
	return gradIn
}

// inputGrad writes columns [lo, hi) of dL/dx into the gradIn scratch.
func (d *Dense) inputGrad(gradOut *Tensor, lo, hi int) *Tensor {
	gradIn := d.gradIn.Reset(gradOut.rows, hi-lo)
	in := min(d.input.cols, hi)
	if in < hi {
		// Degenerate narrow input: the uncovered tail of each gradient row
		// must read as zero, as the allocating implementation guaranteed.
		gradIn.ZeroReset(gradOut.rows, hi-lo)
	}
	if lo >= in {
		return gradIn
	}
	for i := 0; i < gradOut.rows; i++ {
		gi := gradIn.Row(i)[:in-lo]
		if d.Out == 1 {
			// Single-output layers: the row gradient is DEFINED as one
			// scalar times the weight column, gi = g0·w (vscale).
			vscale(gi, d.w.Data[lo:in], gradOut.data[i])
			continue
		}
		// The fixed-lane dot defined by vdot — the bit-level reference
		// for this layer (see refDenseBackward) — of the gradient row with
		// every weight row in the window; each output is its own dot.
		dotRows(gi, gradOut.Row(i), d.w.Data[lo*d.Out:], d.Out)
	}
	return gradIn
}

// paramGrads accumulates dL/dW and dL/db.
func (d *Dense) paramGrads(gradOut *Tensor) {
	if d.Out == 1 {
		// Single-output layers: gw += g0·in per row, DEFINED without a
		// zero-skip.
		MatMulAddTN(d.w.Grad, gradOut, d.input, false)
		for _, g := range gradOut.data {
			d.b.Grad[0] += g
		}
		return
	}
	// gw[j] += v·g for every input v ≠ 0, rows in order (the zero-skip).
	MatMulAddTN(d.w.Grad, d.input, gradOut, true)
	for i := 0; i < gradOut.rows; i++ {
		vadd(d.b.Grad, gradOut.Row(i))
	}
}

// Params returns the layer's weight and bias.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// actKind tags the built-in activations so the hot paths can dispatch to
// the vector kernels (and ShardedNet can clone an activation without
// inspecting its closures).
type actKind uint8

const (
	actGeneric actKind = iota // fn/deriv closures, elementwise scalar loop
	actReLU
	actLeakyReLU
	actTanh
	actSigmoid
)

// activation is shared machinery for elementwise activations.
type activation struct {
	kind  actKind
	alpha float64                    // leaky-ReLU negative slope
	fn    func(float64) float64      // generic forward (non-kernel kinds)
	deriv func(x, y float64) float64 // derivative given input x and output y

	input  *Tensor
	out    Tensor
	gradIn Tensor
	legacy legacyIO
}

var _ TensorLayer = (*activation)(nil)

// clone returns a fresh activation of the same kind with empty scratch,
// sharing nothing with the receiver (activations are stateless between
// batches apart from their caches).
func (a *activation) clone() *activation {
	return &activation{kind: a.kind, alpha: a.alpha, fn: a.fn, deriv: a.deriv}
}

func (a *activation) Forward(x [][]float64, train bool) [][]float64 {
	return legacyForward(a, &a.legacy, x, train)
}

func (a *activation) ForwardT(x *Tensor, _ bool) *Tensor {
	a.input = x
	out := a.out.Reset(x.rows, x.cols)
	switch a.kind {
	case actReLU:
		// Dedicated kernel: LeakyReLU with alpha=0 would turn negatives
		// into -0 (0*x), not the +0 the scalar definition produces.
		vreluFwd(out.data, x.data)
	case actLeakyReLU:
		vlreluFwd(out.data, x.data, a.alpha)
	default:
		for i, v := range x.data {
			out.data[i] = a.fn(v)
		}
	}
	return out
}

func (a *activation) Backward(gradOut [][]float64) [][]float64 {
	return legacyBackward(a, &a.legacy, gradOut)
}

func (a *activation) BackwardT(gradOut *Tensor) *Tensor {
	gradIn := a.gradIn.Reset(gradOut.rows, gradOut.cols)
	switch a.kind {
	case actReLU:
		// g*(x<0 ? 0 : 1): multiplying by literal 0 matches the historical
		// g*deriv scalar path bit for bit (keeps g's sign on the zero).
		vlreluBwd(gradIn.data, gradOut.data, a.input.data, 0)
	case actLeakyReLU:
		vlreluBwd(gradIn.data, gradOut.data, a.input.data, a.alpha)
	default:
		for i, g := range gradOut.data {
			gradIn.data[i] = g * a.deriv(a.input.data[i], a.out.data[i])
		}
	}
	return gradIn
}

func (a *activation) Params() []*Param { return nil }

// NewReLU returns a rectified linear activation layer.
func NewReLU() Layer {
	return &activation{kind: actReLU}
}

// NewLeakyReLU returns a leaky ReLU with the given negative slope.
func NewLeakyReLU(alpha float64) Layer {
	return &activation{kind: actLeakyReLU, alpha: alpha}
}

// NewTanh returns a tanh activation layer.
func NewTanh() Layer {
	return &activation{
		kind:  actTanh,
		fn:    math.Tanh,
		deriv: func(_, y float64) float64 { return 1 - y*y },
	}
}

// NewSigmoid returns a logistic activation layer.
func NewSigmoid() Layer {
	return &activation{
		kind:  actSigmoid,
		fn:    func(x float64) float64 { return 1 / (1 + math.Exp(-x)) },
		deriv: func(_, y float64) float64 { return y * (1 - y) },
	}
}

// Dropout zeroes each unit with probability P during training and scales
// survivors by 1/(1-P) (inverted dropout). At inference it is the identity.
type Dropout struct {
	P   float64
	rng *rand.Rand

	mask    Tensor
	hasMask bool
	out     Tensor
	gradIn  Tensor
	legacy  legacyIO
}

var _ TensorLayer = (*Dropout)(nil)

// NewDropout creates a dropout layer with drop probability p.
func NewDropout(p float64, rng *rand.Rand) *Dropout {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("nn: dropout probability %v out of [0,1)", p))
	}
	return &Dropout{P: p, rng: rng}
}

// Forward applies the dropout mask in training mode.
func (d *Dropout) Forward(x [][]float64, train bool) [][]float64 {
	if !train || d.P == 0 {
		d.hasMask = false
		return x
	}
	return legacyForward(d, &d.legacy, x, train)
}

// ForwardT applies the dropout mask in training mode; at inference it
// returns x unchanged.
func (d *Dropout) ForwardT(x *Tensor, train bool) *Tensor {
	if !train || d.P == 0 {
		d.hasMask = false
		return x
	}
	scale := 1 / (1 - d.P)
	out := d.out.Reset(x.rows, x.cols)
	mask := d.mask.Reset(x.rows, x.cols)
	d.hasMask = true
	for i, v := range x.data {
		if d.rng.Float64() >= d.P {
			mask.data[i] = scale
			out.data[i] = v * scale
		} else {
			mask.data[i] = 0
			out.data[i] = 0
		}
	}
	return out
}

// Backward routes gradients through the surviving units.
func (d *Dropout) Backward(gradOut [][]float64) [][]float64 {
	if !d.hasMask {
		return gradOut
	}
	return legacyBackward(d, &d.legacy, gradOut)
}

// BackwardT routes gradients through the surviving units.
func (d *Dropout) BackwardT(gradOut *Tensor) *Tensor {
	if !d.hasMask {
		return gradOut
	}
	gradIn := d.gradIn.Reset(gradOut.rows, gradOut.cols)
	for i, g := range gradOut.data {
		gradIn.data[i] = g * d.mask.data[i]
	}
	return gradIn
}

// Params returns nil; dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }

// GradReverse is the identity in the forward pass and multiplies gradients
// by -Lambda in the backward pass (Ganin & Lempitsky's gradient reversal,
// used by the DANN baseline).
type GradReverse struct {
	Lambda float64

	gradIn Tensor
	legacy legacyIO
}

var _ TensorLayer = (*GradReverse)(nil)

// Forward is the identity.
func (g *GradReverse) Forward(x [][]float64, _ bool) [][]float64 { return x }

// ForwardT is the identity.
func (g *GradReverse) ForwardT(x *Tensor, _ bool) *Tensor { return x }

// Backward negates and scales the gradient.
func (g *GradReverse) Backward(gradOut [][]float64) [][]float64 {
	return legacyBackward(g, &g.legacy, gradOut)
}

// BackwardT negates and scales the gradient.
func (g *GradReverse) BackwardT(gradOut *Tensor) *Tensor {
	gradIn := g.gradIn.Reset(gradOut.rows, gradOut.cols)
	for i, v := range gradOut.data {
		gradIn.data[i] = -g.Lambda * v
	}
	return gradIn
}

// Params returns nil; the layer has no parameters.
func (g *GradReverse) Params() []*Param { return nil }
