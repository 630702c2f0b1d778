package baselines

import (
	"testing"

	"netdrift/internal/dataset"
	"netdrift/internal/models"
)

// memoMethod is a method whose classifier-independent preparation is
// memoised on the instance.
type memoMethod interface {
	Method
	memoState() *prepMemo
}

func (m *CMT) memoState() *prepMemo   { return &m.memo }
func (m *CORAL) memoState() *prepMemo { return &m.memo }

func samePreds(t *testing.T, label string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d predictions, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: prediction %d = %d, want %d", label, i, got[i], want[i])
		}
	}
}

// TestPrepMemoMatchesFreshInstances: one CMT or CORAL instance called once
// per classifier family — as a Table I cell calls it — must predict exactly
// what a fresh instance predicts for each call, and must recompute when
// any input dataset pointer changes.
func TestPrepMemoMatchesFreshInstances(t *testing.T) {
	src := driftProblem(240, false, 21)
	sup := driftProblem(12, true, 22)
	tst := driftProblem(60, true, 23)
	sup2 := driftProblem(12, true, 24)
	clf := func(kind models.Kind) models.Classifier {
		c, err := models.New(kind, models.Options{Seed: 3, Epochs: 4, Trees: 4})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	builders := map[string]func() memoMethod{
		"CMT":   func() memoMethod { return &CMT{Seed: 6} },
		"CORAL": func() memoMethod { return &CORAL{Seed: 6} },
	}
	for name, build := range builders {
		m := build()
		predict := func(mm Method, kind models.Kind, support, test *dataset.Dataset) []int {
			pred, err := mm.Predict(src, support, test, clf(kind))
			if err != nil {
				t.Fatalf("%s/%s: %v", name, kind, err)
			}
			return pred
		}
		var first *prepared
		for _, kind := range models.AllKinds() {
			samePreds(t, name+"/"+kind.String(), predict(m, kind, sup, tst), predict(build(), kind, sup, tst))
			if first == nil {
				first = m.memoState().p
			} else if m.memoState().p != first {
				t.Fatalf("%s/%s: same inputs recomputed the prepared set", name, kind)
			}
		}

		// A different support set — even one with identical contents —
		// is a different key and must be recomputed.
		for _, support := range []*dataset.Dataset{sup2, sup.Clone()} {
			samePreds(t, name+"/new support", predict(m, models.KindXGB, support, tst), predict(build(), models.KindXGB, support, tst))
			if memo := m.memoState(); memo.support != support || memo.p == first {
				t.Fatalf("%s: new support pointer did not recompute", name)
			}
			first = m.memoState().p
		}
		tst2 := tst.Clone()
		predict(m, models.KindRF, sup, tst2)
		if memo := m.memoState(); memo.test != tst2 || memo.p == first {
			t.Fatalf("%s: new test pointer did not recompute", name)
		}
	}
}
