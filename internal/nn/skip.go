package nn

// SkipConcat wraps an inner layer stack and concatenates the stack's output
// with the original input: y = [inner(x), x]. A downstream dense layer can
// then model the direct (e.g. linear) dependence on x while the inner stack
// captures the nonlinear residual — which dramatically speeds up learning
// of near-linear reconstruction maps on a small step budget.
type SkipConcat struct {
	Inner Layer

	inWidth int
	out     Tensor
	gradH   Tensor
	gradIn  Tensor
	legacy  legacyIO
}

var (
	_ TensorLayer         = (*SkipConcat)(nil)
	_ ParamBackwarder     = (*SkipConcat)(nil)
	_ selectiveBackwarder = (*SkipConcat)(nil)
)

// NewSkipConcat wraps the inner layer (often a *Network).
func NewSkipConcat(inner Layer) *SkipConcat {
	return &SkipConcat{Inner: inner}
}

// Forward computes [inner(x), x] row-wise.
func (s *SkipConcat) Forward(x [][]float64, train bool) [][]float64 {
	return legacyForward(s, &s.legacy, x, train)
}

// ForwardT computes [inner(x), x] in place.
func (s *SkipConcat) ForwardT(x *Tensor, train bool) *Tensor {
	s.inWidth = x.cols
	h := LayerForwardT(s.Inner, x, train)
	out := s.out.Reset(x.rows, h.cols+x.cols)
	for i := 0; i < x.rows; i++ {
		row := out.Row(i)
		copy(row[:h.cols], h.Row(i))
		copy(row[h.cols:], x.Row(i))
	}
	return out
}

// Backward splits the incoming gradient into the inner-path part and the
// skip part, and sums the two input gradients.
func (s *SkipConcat) Backward(gradOut [][]float64) [][]float64 {
	if len(gradOut) == 0 {
		return gradOut
	}
	return legacyBackward(s, &s.legacy, gradOut)
}

// BackwardT splits the incoming gradient and sums the two input gradients.
func (s *SkipConcat) BackwardT(gradOut *Tensor) *Tensor {
	return s.backwardSel(gradOut, true, 0, s.inWidth)
}

// BackwardParamsT implements ParamBackwarder: the inner stack accumulates
// its parameter gradients and neither input gradient is formed.
func (s *SkipConcat) BackwardParamsT(gradOut *Tensor) {
	s.backwardSel(gradOut, true, 0, 0)
}

// backwardSel is the selective backward (see BackwardSelT): the inner
// stack produces window [lo, hi) of its input gradient, and the skip
// path adds the same columns of the incoming gradient's tail.
func (s *SkipConcat) backwardSel(gradOut *Tensor, params bool, lo, hi int) *Tensor {
	hi = min(hi, s.inWidth)
	hWidth := gradOut.cols - s.inWidth
	gradH := s.gradH.Reset(gradOut.rows, hWidth)
	for i := 0; i < gradOut.rows; i++ {
		copy(gradH.Row(i), gradOut.Row(i)[:hWidth])
	}
	inner := BackwardSelT(s.Inner, gradH, params, lo, hi)
	if lo >= hi {
		return nil
	}
	gradIn := s.gradIn.Reset(gradOut.rows, hi-lo)
	for i := 0; i < gradOut.rows; i++ {
		skip := gradOut.Row(i)[hWidth+lo : hWidth+hi]
		innerRow := inner.Row(i)
		gi := gradIn.Row(i)
		for j := range gi {
			gi[j] = innerRow[j] + skip[j]
		}
	}
	return gradIn
}

// Params returns the inner stack's parameters.
func (s *SkipConcat) Params() []*Param { return s.Inner.Params() }
