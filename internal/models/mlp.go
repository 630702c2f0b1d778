package models

import (
	"fmt"
	"math/rand"

	"netdrift/internal/nn"
)

// MLPClassifier is a plain two-hidden-layer perceptron trained with Adam.
type MLPClassifier struct {
	opts Options

	net        *nn.Network
	numClasses int
	in         int
}

var _ Classifier = (*MLPClassifier)(nil)

// NewMLPClassifier creates an untrained MLP classifier.
func NewMLPClassifier(opts Options) *MLPClassifier {
	if opts.Epochs == 0 {
		opts.Epochs = 30
	}
	return &MLPClassifier{opts: opts}
}

// Name implements Classifier.
func (m *MLPClassifier) Name() string { return "MLP" }

// Fit trains the network with softmax cross-entropy.
func (m *MLPClassifier) Fit(x [][]float64, y []int, numClasses int) error {
	if err := validateFit(x, y, numClasses); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(m.opts.Seed))
	m.in = len(x[0])
	m.numClasses = numClasses
	m.net = nn.NewMLP(nn.MLPConfig{
		In:      m.in,
		Hidden:  []int{128, 64},
		Out:     numClasses,
		Dropout: 0.1,
		Rng:     rng,
	})
	return trainSoftmaxNet(m.net, x, y, m.opts.Epochs, 64, 1e-3, rng)
}

// PredictProba implements Classifier.
func (m *MLPClassifier) PredictProba(x [][]float64) ([][]float64, error) {
	if m.net == nil {
		return nil, ErrNotFitted
	}
	return predictSoftmax(m.net, x, m.in)
}

// trainSoftmaxNet runs standard minibatch training with Adam.
func trainSoftmaxNet(net *nn.Network, x [][]float64, y []int, epochs, batch int, lr float64, rng *rand.Rand) error {
	tr := newSoftmaxTrainer(net, x, y, lr)
	var perm []int
	var batches [][]int
	for epoch := 0; epoch < epochs; epoch++ {
		perm, batches = nn.MinibatchesInto(len(x), batch, rng, perm, batches)
		for _, idx := range batches {
			if err := tr.step(idx); err != nil {
				return fmt.Errorf("models: epoch %d: %w", epoch, err)
			}
		}
	}
	return nil
}

// softmaxTrainer is the classifier training step on the flat tensor
// path: gather the minibatch, forward, softmax cross-entropy, a backward
// pass that skips the root input gradient, and Adam. Every buffer is
// reused, so a warm step allocates nothing.
type softmaxTrainer struct {
	net    *nn.Network
	params []*nn.Param
	opt    *nn.Adam
	x      [][]float64
	y      []int

	bx, grad nn.Tensor
	by       []int
}

func newSoftmaxTrainer(net *nn.Network, x [][]float64, y []int, lr float64) *softmaxTrainer {
	return &softmaxTrainer{net: net, params: net.Params(), opt: nn.NewAdam(lr, 1e-5), x: x, y: y}
}

// step trains on the rows idx of the training set.
func (tr *softmaxTrainer) step(idx []int) error {
	bx := nn.GatherInto(&tr.bx, tr.x, idx)
	tr.by = tr.by[:0]
	for _, j := range idx {
		tr.by = append(tr.by, tr.y[j])
	}
	out := tr.net.ForwardT(bx, true)
	if _, err := nn.SoftmaxCET(out, tr.by, &tr.grad); err != nil {
		return err
	}
	tr.net.BackwardParamsT(&tr.grad)
	tr.opt.Step(tr.params)
	return nil
}

// predictSoftmax runs the eval forward of a fitted classifier network
// through nn.Infer and returns per-row class probabilities. Every row must
// have the training width.
func predictSoftmax(net *nn.Network, x [][]float64, wantIn int) ([][]float64, error) {
	if len(x) == 0 {
		return nil, nil
	}
	if err := checkWidths(x, wantIn); err != nil {
		return nil, err
	}
	var in nn.Tensor
	var scr nn.InferScratch
	logits := nn.Infer(net, in.SetFromRows(x), &scr)
	cols := logits.Cols()
	flat := make([]float64, len(x)*cols)
	out := make([][]float64, len(x))
	for i := range out {
		out[i] = flat[i*cols : (i+1)*cols]
		nn.SoftmaxInto(out[i], logits.Row(i))
	}
	return out, nil
}
