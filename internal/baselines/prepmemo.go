package baselines

import (
	"fmt"
	"sync"

	"netdrift/internal/dataset"
	"netdrift/internal/models"
)

// prepared is the classifier-independent part of a model-agnostic method's
// Predict: the training set it hands to the classifier and the transformed
// test rows.
type prepared struct {
	trainX     [][]float64
	trainY     []int
	testX      [][]float64
	numClasses int
}

// fitPredict trains clf on the prepared set and labels the test rows.
func (p *prepared) fitPredict(clf models.Classifier, method string) ([]int, error) {
	if err := clf.Fit(p.trainX, p.trainY, p.numClasses); err != nil {
		return nil, fmt.Errorf("baselines: %s fit: %w", method, err)
	}
	return models.PredictClasses(clf, p.testX)
}

// prepMemo keeps a method instance's last prepared set, keyed by the
// (source, support, test) dataset pointers, as experiments.OursMethod does
// for its fitted adapter. A Table I cell calls one instance once per
// classifier column with the same inputs, and the preparation draws from an
// rng re-seeded on every call, so reusing it changes no result. The memo
// lives and dies with the instance; there is no package-level cache.
type prepMemo struct {
	mu                    sync.Mutex
	source, support, test *dataset.Dataset
	p                     *prepared
}

// get returns the memoised set for these inputs, or builds and keeps it.
func (m *prepMemo) get(source, support, test *dataset.Dataset, build func() (*prepared, error)) (*prepared, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.p != nil && m.source == source && m.support == support && m.test == test {
		return m.p, nil
	}
	p, err := build()
	if err != nil {
		return nil, err
	}
	m.source, m.support, m.test, m.p = source, support, test, p
	return p, nil
}
