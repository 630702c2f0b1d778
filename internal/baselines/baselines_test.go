package baselines

import (
	"errors"
	"math/rand"
	"testing"

	"netdrift/internal/dataset"
	"netdrift/internal/metrics"
	"netdrift/internal/models"
)

// driftProblem builds a 3-class drifted problem: 6 invariant signal
// features, 4 variant features that carry strong class signal in-domain but
// are mean-shifted in the target.
func driftProblem(n int, target bool, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	shifts := []float64{3, -3, 4, -4}
	for i := 0; i < n; i++ {
		c := i % 3
		row := make([]float64, 10)
		for j := 0; j < 6; j++ {
			row[j] = rng.NormFloat64() * 0.8
		}
		row[c] += 1.6 // invariant class signal
		for j := 0; j < 4; j++ {
			row[6+j] = rng.NormFloat64() * 0.5
			if (c+j)%3 == 0 {
				row[6+j] += 2.5 // strong variant class signal
			}
			if target {
				row[6+j] += shifts[j]
			}
		}
		x[i] = row
		y[i] = c
	}
	return &dataset.Dataset{X: x, Y: y}
}

func f1Of(t *testing.T, m Method, src, sup, tst *dataset.Dataset, clf models.Classifier) float64 {
	t.Helper()
	pred, err := m.Predict(src, sup, tst, clf)
	if err != nil {
		t.Fatalf("%s: %v", m.Name(), err)
	}
	if len(pred) != tst.NumSamples() {
		t.Fatalf("%s: %d predictions for %d samples", m.Name(), len(pred), tst.NumSamples())
	}
	f1, err := metrics.MacroF1Score(tst.Y, pred, 3)
	if err != nil {
		t.Fatal(err)
	}
	return f1
}

func quickClf() models.Classifier {
	return models.NewMLPClassifier(models.Options{Seed: 3, Epochs: 10})
}

func TestAllMethodsRunAndBeatChanceInDomain(t *testing.T) {
	src := driftProblem(450, false, 1)
	sup := driftProblem(15, true, 2)
	tst := driftProblem(240, true, 3)

	methods := []Method{
		SrcOnly{},
		TarOnly{},
		SAndT{Seed: 5},
		&FineTune{Seed: 5, PretrainEpochs: 8, TuneEpochs: 20},
		&CORAL{Seed: 5},
		&DANN{Epochs: 8, Seed: 5},
		NewSCL(8, 5),
		NewMatchNet(60, 5),
		NewProtoNet(60, 5),
		&CMT{Seed: 5},
		ICD{Seed: 5},
	}
	for _, m := range methods {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			var clf models.Classifier
			if m.ModelAgnostic() {
				clf = quickClf()
			}
			f1 := f1Of(t, m, src, sup, tst, clf)
			// Chance macro-F1 is ~33; every method must beat it. (SrcOnly
			// included: the drift hurts it but rarely below chance here.)
			if f1 < 25 {
				t.Errorf("%s F1 = %.1f; implausibly low", m.Name(), f1)
			}
			t.Logf("%s F1 = %.1f", m.Name(), f1)
		})
	}
}

func TestAdaptiveMethodsBeatSrcOnly(t *testing.T) {
	src := driftProblem(450, false, 7)
	sup := driftProblem(15, true, 8)
	tst := driftProblem(240, true, 9)

	srcOnly := f1Of(t, SrcOnly{}, src, sup, tst, quickClf())
	for _, m := range []Method{SAndT{Seed: 4}, &CORAL{Seed: 4}, &CMT{Seed: 4}} {
		f1 := f1Of(t, m, src, sup, tst, quickClf())
		if f1 <= srcOnly-5 {
			t.Errorf("%s F1 = %.1f worse than SrcOnly %.1f", m.Name(), f1, srcOnly)
		}
	}
}

func TestMethodNamesAndAgnosticism(t *testing.T) {
	tests := []struct {
		m        Method
		name     string
		agnostic bool
	}{
		{SrcOnly{}, "SrcOnly", true},
		{TarOnly{}, "TarOnly", true},
		{SAndT{}, "S&T", true},
		{&FineTune{}, "Fine-tune", false},
		{&CORAL{}, "CORAL", true},
		{&DANN{}, "DANN", false},
		{NewSCL(1, 0), "SCL", false},
		{NewMatchNet(1, 0), "MatchNet", false},
		{NewProtoNet(1, 0), "ProtoNet", false},
		{&CMT{}, "CMT", true},
		{ICD{}, "ICD", true},
	}
	for _, tt := range tests {
		if got := tt.m.Name(); got != tt.name {
			t.Errorf("Name = %q; want %q", got, tt.name)
		}
		if got := tt.m.ModelAgnostic(); got != tt.agnostic {
			t.Errorf("%s.ModelAgnostic = %v; want %v", tt.name, got, tt.agnostic)
		}
	}
}

func TestValidateInputs(t *testing.T) {
	good := driftProblem(30, false, 1)
	if err := validateInputs(nil, nil, good, false); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("nil source: err = %v; want ErrInvalidInput", err)
	}
	if err := validateInputs(good, nil, good, true); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("nil support: err = %v; want ErrInvalidInput", err)
	}
	narrow, _ := good.SelectFeatures([]int{0, 1})
	if err := validateInputs(good, good, narrow, false); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("width mismatch: err = %v; want ErrInvalidInput", err)
	}
}

func TestICDVariantCount(t *testing.T) {
	src := driftProblem(450, false, 11)
	sup := driftProblem(30, true, 12)
	n, err := ICD{}.VariantCount(src, sup)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 || n > 6 {
		t.Errorf("ICD variant count = %d; want within [1, 6] (4 shifted features)", n)
	}
}

func TestCMTAugmentationHandlesOneShot(t *testing.T) {
	src := driftProblem(300, false, 13)
	sup := driftProblem(3, true, 14) // exactly 1 per class
	tst := driftProblem(120, true, 15)
	f1 := f1Of(t, &CMT{Seed: 9}, src, sup, tst, quickClf())
	if f1 < 25 {
		t.Errorf("CMT 1-shot F1 = %.1f; implausibly low", f1)
	}
}

func TestTarOnlyImprovesWithMoreShots(t *testing.T) {
	src := driftProblem(300, false, 16)
	tst := driftProblem(240, true, 17)
	f1Small := f1Of(t, TarOnly{}, src, driftProblem(6, true, 18), tst, quickClf())
	f1Large := f1Of(t, TarOnly{}, src, driftProblem(90, true, 19), tst, quickClf())
	if f1Large < f1Small-3 {
		t.Errorf("TarOnly should improve with shots: %.1f (6) vs %.1f (90)", f1Small, f1Large)
	}
}

// TestCMTDeterministicAcrossRuns guards the sorted class iteration in the
// augmentation loop: ranging over the per-class map directly let Go's
// randomized map order reassign the shared rng's draws between runs, so two
// identical CMT calls could train on differently ordered (and differently
// jittered) data and disagree.
func TestCMTDeterministicAcrossRuns(t *testing.T) {
	src := driftProblem(300, false, 11)
	sup := driftProblem(15, true, 12)
	tst := driftProblem(90, true, 13)
	run := func() []int {
		pred, err := (&CMT{Seed: 5}).Predict(src, sup, tst, quickClf())
		if err != nil {
			t.Fatal(err)
		}
		return pred
	}
	first := run()
	for trial := 0; trial < 3; trial++ {
		again := run()
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("trial %d: prediction %d differs (%d vs %d)", trial, i, again[i], first[i])
			}
		}
	}
}
