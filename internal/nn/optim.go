package nn

import "math"

// Optimizer updates parameters from their accumulated gradients and clears
// the gradients afterwards.
type Optimizer interface {
	Step(params []*Param)
}

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64

	velocity map[*Param][]float64
}

var _ Optimizer = (*SGD)(nil)

// NewSGD creates an SGD optimizer.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, velocity: make(map[*Param][]float64)}
}

// Step applies one update and zeroes gradients.
func (o *SGD) Step(params []*Param) {
	for _, p := range params {
		if o.Momentum == 0 {
			for i := range p.Data {
				p.Data[i] -= o.LR * p.Grad[i]
			}
		} else {
			v, ok := o.velocity[p]
			if !ok {
				v = make([]float64, len(p.Data))
				o.velocity[p] = v
			}
			for i := range p.Data {
				v[i] = o.Momentum*v[i] - o.LR*p.Grad[i]
				p.Data[i] += v[i]
			}
		}
		p.ZeroGrad()
	}
}

// Adam is the Adam optimizer with decoupled weight decay. The paper's GAN
// uses lr 2e-4 with decay 1e-6 (§V-C3).
type Adam struct {
	LR          float64
	Beta1       float64 // default 0.9
	Beta2       float64 // default 0.999
	Eps         float64 // default 1e-8
	WeightDecay float64

	t    int
	m, v map[*Param][]float64
	coef adamCoef
}

var _ Optimizer = (*Adam)(nil)

// NewAdam creates an Adam optimizer with standard betas.
func NewAdam(lr, weightDecay float64) *Adam {
	return &Adam{
		LR:          lr,
		Beta1:       0.9,
		Beta2:       0.999,
		Eps:         1e-8,
		WeightDecay: weightDecay,
		m:           make(map[*Param][]float64),
		v:           make(map[*Param][]float64),
	}
}

// Step applies one Adam update and zeroes gradients.
func (o *Adam) Step(params []*Param) {
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	// The coefficients live on the optimizer: the kernel is called through
	// the dispatch table, so a stack value would escape every step.
	k := &o.coef
	*k = adamCoef{
		b1: o.Beta1, c1: 1 - o.Beta1, b2: o.Beta2, c2: 1 - o.Beta2,
		bc1: bc1, bc2: bc2, lr: o.LR, eps: o.Eps, wd: o.WeightDecay,
	}
	if o.WeightDecay != 0 {
		k.decay = 1
	}
	for _, p := range params {
		if len(p.Data) == 0 {
			continue
		}
		m, ok := o.m[p]
		if !ok {
			m = make([]float64, len(p.Data))
			o.m[p] = m
		}
		v, ok := o.v[p]
		if !ok {
			v = make([]float64, len(p.Data))
			o.v[p] = v
		}
		// The kernel reads len(p.Data) elements of every slice; m and v
		// are sized here, Grad is checked.
		_ = p.Grad[len(p.Data)-1]
		vadam(p.Data, p.Grad, m, v, k)
	}
}

// adamCoef carries one Adam step's scalars to the update kernel. The
// layout is read by adamavx: nine float64s at 8-byte offsets, then the
// decay flag at offset 72.
type adamCoef struct {
	b1, c1, b2, c2 float64 // β1, 1-β1, β2, 1-β2
	bc1, bc2       float64 // bias corrections 1-β1ᵗ, 1-β2ᵗ
	lr, eps, wd    float64
	decay          uint64 // 1 when wd != 0
}

// vadamGo is the Adam update over one parameter in the historical scalar
// evaluation order — g (+ wd·data), m = β1·m + (1-β1)·g,
// v = β2·v + ((1-β2)·g)·g, data -= (lr·(m/bc1)) / (√(v/bc2) + eps) — and
// clears the gradient. Hoisting the loop-invariant 1-β terms reuses the
// identical values, so bits match the per-element expression.
func vadamGo(data, grad, m, v []float64, k *adamCoef) {
	grad = grad[:len(data)]
	m = m[:len(data)]
	v = v[:len(data)]
	for i := range data {
		g := grad[i]
		if k.decay != 0 {
			g += k.wd * data[i]
		}
		m[i] = k.b1*m[i] + k.c1*g
		v[i] = k.b2*v[i] + k.c2*g*g
		mHat := m[i] / k.bc1
		vHat := v[i] / k.bc2
		data[i] -= k.lr * mHat / (math.Sqrt(vHat) + k.eps)
		grad[i] = 0
	}
}
