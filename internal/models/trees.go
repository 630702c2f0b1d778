package models

import (
	"netdrift/internal/tree"
)

// ForestClassifier adapts tree.RandomForest to the Classifier interface.
type ForestClassifier struct {
	opts Options
	rf   *tree.RandomForest
	in   int
}

var _ Classifier = (*ForestClassifier)(nil)

// NewForestClassifier creates an untrained random forest.
func NewForestClassifier(opts Options) *ForestClassifier {
	if opts.Trees == 0 {
		opts.Trees = 80
	}
	return &ForestClassifier{opts: opts}
}

// Name implements Classifier.
func (f *ForestClassifier) Name() string { return "RF" }

// Fit trains the forest.
func (f *ForestClassifier) Fit(x [][]float64, y []int, numClasses int) error {
	if err := validateFit(x, y, numClasses); err != nil {
		return err
	}
	rf, err := tree.FitRandomForest(x, y, numClasses, tree.ForestConfig{
		NumTrees: f.opts.Trees,
		MaxDepth: 16,
		Seed:     f.opts.Seed,
	})
	if err != nil {
		return err
	}
	f.rf = rf
	f.in = len(x[0])
	return nil
}

// PredictProba implements Classifier.
func (f *ForestClassifier) PredictProba(x [][]float64) ([][]float64, error) {
	if f.rf == nil {
		return nil, ErrNotFitted
	}
	if err := checkWidths(x, f.in); err != nil {
		return nil, err
	}
	return f.rf.PredictProba(x)
}

// BoostClassifier adapts tree.GradientBoosting to the Classifier interface.
type BoostClassifier struct {
	opts Options
	gb   *tree.GradientBoosting
	in   int
}

var _ Classifier = (*BoostClassifier)(nil)

// NewBoostClassifier creates an untrained boosted-tree classifier.
func NewBoostClassifier(opts Options) *BoostClassifier {
	if opts.Trees == 0 {
		opts.Trees = 40 // boosting rounds
	}
	return &BoostClassifier{opts: opts}
}

// Name implements Classifier.
func (b *BoostClassifier) Name() string { return "XGB" }

// Fit trains the boosted ensemble.
func (b *BoostClassifier) Fit(x [][]float64, y []int, numClasses int) error {
	if err := validateFit(x, y, numClasses); err != nil {
		return err
	}
	gb, err := tree.FitGradientBoosting(x, y, numClasses, tree.BoostConfig{
		Rounds:   b.opts.Trees,
		MaxDepth: 5,
		Seed:     b.opts.Seed,
	})
	if err != nil {
		return err
	}
	b.gb = gb
	b.in = len(x[0])
	return nil
}

// PredictProba implements Classifier.
func (b *BoostClassifier) PredictProba(x [][]float64) ([][]float64, error) {
	if b.gb == nil {
		return nil, ErrNotFitted
	}
	if err := checkWidths(x, b.in); err != nil {
		return nil, err
	}
	return b.gb.PredictProba(x)
}
