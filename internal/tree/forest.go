package tree

import (
	"fmt"
	"math"
	"math/rand"
)

// ForestConfig configures a random forest classifier.
type ForestConfig struct {
	NumTrees    int // default 100
	MaxDepth    int // default 16
	MinLeaf     int // default 1
	MaxFeatures int // default sqrt(d)
	Seed        int64
}

// RandomForest is a bagged ensemble of CART trees.
type RandomForest struct {
	trees      []*ClassificationTree
	numClasses int
}

// FitRandomForest trains the ensemble on bootstrap resamples.
func FitRandomForest(x [][]float64, y []int, numClasses int, cfg ForestConfig) (*RandomForest, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("tree: %d rows, %d labels", len(x), len(y))
	}
	if numClasses < 2 {
		return nil, fmt.Errorf("tree: numClasses %d must be >= 2", numClasses)
	}
	if cfg.NumTrees == 0 {
		cfg.NumTrees = 100
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 16
	}
	if cfg.MinLeaf == 0 {
		cfg.MinLeaf = 1
	}
	if cfg.MaxFeatures == 0 {
		cfg.MaxFeatures = int(math.Sqrt(float64(len(x[0])))) + 1
	}
	return fitForest(x, y, numClasses, cfg, rankColumns(x, len(x) > 1<<16)), nil
}

// fitForest grows the forest on x's column ranks. Every tree draws its
// bootstrap as row indices into x, so the columns are ranked once for the
// whole forest.
func fitForest(x [][]float64, y []int, numClasses int, cfg ForestConfig, ranks *columnRanks) *RandomForest {
	tcfg := ClassTreeConfig{
		MaxDepth:    cfg.MaxDepth,
		MinLeaf:     cfg.MinLeaf,
		MaxFeatures: cfg.MaxFeatures,
		// Re-seeding one Rand per tree yields the same stream as a fresh
		// rand.New(rand.NewSource(seed)) without its allocation.
		Rng: rand.New(rand.NewSource(0)),
	}
	tcfg.applyDefaults(len(x[0]))
	rng := rand.New(rand.NewSource(cfg.Seed))
	rf := &RandomForest{numClasses: numClasses}
	b := newClassBuilder(x, y, numClasses, ranks)
	n := len(x)
	rows := make([]int32, n)
	for t := 0; t < cfg.NumTrees; t++ {
		for i := range rows {
			rows[i] = int32(rng.Intn(n))
		}
		tcfg.Rng.Seed(rng.Int63())
		rf.trees = append(rf.trees, b.fit(rows, tcfg))
	}
	return rf
}

// PredictProba averages the member trees' leaf distributions: each row
// adds its leaf's distribution from every tree, in tree order.
func (rf *RandomForest) PredictProba(x [][]float64) ([][]float64, error) {
	if len(rf.trees) == 0 {
		return nil, ErrNotTrained
	}
	inv := 1 / float64(len(rf.trees))
	out := make([][]float64, len(x))
	for i, row := range x {
		p := make([]float64, rf.numClasses)
		for _, t := range rf.trees {
			for c, v := range t.traverse(row).dist {
				p[c] += v
			}
		}
		for c := range p {
			p[c] *= inv
		}
		out[i] = p
	}
	return out, nil
}

// NumTrees reports the ensemble size.
func (rf *RandomForest) NumTrees() int { return len(rf.trees) }
