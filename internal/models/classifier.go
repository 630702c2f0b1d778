// Package models exposes the four classifier families of the paper's
// Table I — TNet (a gated deep tabular network), MLP, random forest, and
// gradient-boosted trees — behind a single Classifier interface, keeping
// every domain-adaptation method in this library model-agnostic.
package models

import (
	"errors"
	"fmt"
	"math"
)

// Kind identifies a classifier family.
type Kind int

// Classifier families used in Table I.
const (
	KindTNet Kind = iota + 1
	KindMLP
	KindRF
	KindXGB
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindTNet:
		return "TNet"
	case KindMLP:
		return "MLP"
	case KindRF:
		return "RF"
	case KindXGB:
		return "XGB"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// AllKinds lists the classifier families in the paper's column order.
func AllKinds() []Kind { return []Kind{KindTNet, KindMLP, KindRF, KindXGB} }

// ErrNotFitted is returned when predicting before Fit.
var ErrNotFitted = errors.New("models: classifier not fitted")

// Classifier is a trainable multi-class probabilistic classifier.
type Classifier interface {
	// Fit trains on rows x with labels y over numClasses classes.
	Fit(x [][]float64, y []int, numClasses int) error
	// PredictProba returns per-class probabilities for each row.
	PredictProba(x [][]float64) ([][]float64, error)
	// Name identifies the classifier for reports.
	Name() string
}

// PredictClasses runs PredictProba and takes the argmax per row.
func PredictClasses(c Classifier, x [][]float64) ([]int, error) {
	probs, err := c.PredictProba(x)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(probs))
	for i, row := range probs {
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out, nil
}

// Options tune classifier capacity/compute. Zero values select defaults
// appropriate for the paper-scale datasets.
type Options struct {
	Seed   int64
	Epochs int // neural models only
	Trees  int // ensemble models only
}

// New constructs a classifier of the given kind.
func New(kind Kind, opts Options) (Classifier, error) {
	switch kind {
	case KindTNet:
		return NewTNet(opts), nil
	case KindMLP:
		return NewMLPClassifier(opts), nil
	case KindRF:
		return NewForestClassifier(opts), nil
	case KindXGB:
		return NewBoostClassifier(opts), nil
	default:
		return nil, fmt.Errorf("models: unknown kind %d", int(kind))
	}
}

// FitInputError reports a malformed training matrix: a ragged row (its
// width differs from row 0's) or a NaN/±Inf feature. Row and Col locate
// the first offending cell; for a ragged row Col is the first column that
// only one of the two widths has.
type FitInputError struct {
	Row, Col    int
	Width, Want int     // the row's width and row 0's (equal unless ragged)
	Value       float64 // the non-finite feature, when not ragged
}

func (e *FitInputError) Error() string {
	if e.Width != e.Want {
		return fmt.Sprintf("models: ragged row %d: %d columns, want %d (column %d)", e.Row, e.Width, e.Want, e.Col)
	}
	return fmt.Sprintf("models: non-finite feature %v at row %d column %d", e.Value, e.Row, e.Col)
}

// InputWidthError reports a prediction row whose width differs from the
// width the classifier was trained on.
type InputWidthError struct {
	Row         int
	Width, Want int
}

func (e *InputWidthError) Error() string {
	return fmt.Sprintf("models: row %d has %d features, trained on %d", e.Row, e.Width, e.Want)
}

// checkWidths rejects the first row of x whose width is not want.
func checkWidths(x [][]float64, want int) error {
	for i, row := range x {
		if len(row) != want {
			return &InputWidthError{Row: i, Width: len(row), Want: want}
		}
	}
	return nil
}

func validateFit(x [][]float64, y []int, numClasses int) error {
	if len(x) == 0 {
		return errors.New("models: empty training set")
	}
	if len(x) != len(y) {
		return fmt.Errorf("models: %d rows but %d labels", len(x), len(y))
	}
	if numClasses < 2 {
		return fmt.Errorf("models: numClasses %d must be >= 2", numClasses)
	}
	want := len(x[0])
	if want == 0 {
		return errors.New("models: training rows have no features")
	}
	for i, row := range x {
		if len(row) != want {
			return &FitInputError{Row: i, Col: min(len(row), want), Width: len(row), Want: want}
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return &FitInputError{Row: i, Col: j, Width: want, Want: want, Value: v}
			}
		}
	}
	for i, v := range y {
		if v < 0 || v >= numClasses {
			return fmt.Errorf("models: label %d at row %d out of range [0,%d)", v, i, numClasses)
		}
	}
	return nil
}
