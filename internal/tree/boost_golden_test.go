package tree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file keeps the historical whole-column split search as a test-only
// reference: every node scans each sampled feature's global presorted
// order through an in-node membership mask, and children receive freshly
// appended row slices. The production builder must reproduce its trees
// bit for bit.

func refFitGradientBoosting(x [][]float64, y []int, numClasses int, cfg BoostConfig) *GradientBoosting {
	cfg.applyDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := len(x)
	gb := &GradientBoosting{lr: cfg.LearningRate, numClasses: numClasses}
	scores := make([][]float64, n)
	for i := range scores {
		scores[i] = make([]float64, numClasses)
	}
	probs := make([]float64, numClasses)
	grads := make([][]float64, numClasses)
	hess := make([][]float64, numClasses)
	for c := range grads {
		grads[c] = make([]float64, n)
		hess[c] = make([]float64, n)
	}
	presorted := presortColumns(x)
	for round := 0; round < cfg.Rounds; round++ {
		for i := 0; i < n; i++ {
			maxV := scores[i][0]
			for _, v := range scores[i][1:] {
				if v > maxV {
					maxV = v
				}
			}
			var sum float64
			for c := 0; c < numClasses; c++ {
				probs[c] = math.Exp(scores[i][c] - maxV)
				sum += probs[c]
			}
			for c := 0; c < numClasses; c++ {
				p := probs[c] / sum
				g := p
				if y[i] == c {
					g -= 1
				}
				grads[c][i] = g
				hess[c][i] = math.Max(p*(1-p), 1e-6)
			}
		}
		rows := subsampleRows(n, cfg.Subsample, rng)
		roundTrees := make([]*regressionTree, numClasses)
		for c := 0; c < numClasses; c++ {
			rt := refFitRegressionTree(x, presorted, grads[c], hess[c], rows, regTreeConfig{
				maxDepth:     cfg.MaxDepth,
				lambda:       cfg.Lambda,
				colSample:    cfg.ColSample,
				minChildHess: cfg.MinChildHess,
				rng:          rand.New(rand.NewSource(rng.Int63())),
			})
			roundTrees[c] = rt
			for i := 0; i < n; i++ {
				scores[i][c] += cfg.LearningRate * rt.predict(x[i])
			}
		}
		gb.trees = append(gb.trees, roundTrees)
	}
	return gb
}

func refFitRegressionTree(x [][]float64, presorted [][]int32, grad, hess []float64, rows []int, cfg regTreeConfig) *regressionTree {
	t := &regressionTree{}
	d := len(x[0])
	nCols := int(float64(d) * cfg.colSample)
	if nCols < 1 {
		nCols = 1
	}
	b := &refRegBuilder{
		x: x, presorted: presorted, grad: grad, hess: hess,
		cfg: cfg, cols: cfg.rng.Perm(d)[:nCols], tree: t,
		inNode: make([]bool, len(x)),
	}
	b.build(rows, 0)
	return t
}

type refRegBuilder struct {
	x          [][]float64
	presorted  [][]int32
	grad, hess []float64
	cfg        regTreeConfig
	cols       []int
	tree       *regressionTree
	inNode     []bool
}

func (b *refRegBuilder) build(idx []int, depth int) int {
	var sumG, sumH float64
	for _, i := range idx {
		sumG += b.grad[i]
		sumH += b.hess[i]
	}
	if depth >= b.cfg.maxDepth || len(idx) < 2 {
		return b.leaf(sumG, sumH)
	}
	feat, thresh, ok := b.bestSplit(idx, sumG, sumH)
	if !ok {
		return b.leaf(sumG, sumH)
	}
	var left, right []int
	for _, i := range idx {
		if b.x[i][feat] <= thresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return b.leaf(sumG, sumH)
	}
	me := len(b.tree.nodes)
	b.tree.nodes = append(b.tree.nodes, node{feature: feat, thresh: thresh})
	l := b.build(left, depth+1)
	r := b.build(right, depth+1)
	b.tree.nodes[me].left = l
	b.tree.nodes[me].right = r
	return me
}

func (b *refRegBuilder) leaf(sumG, sumH float64) int {
	v := -sumG / (sumH + b.cfg.lambda)
	b.tree.nodes = append(b.tree.nodes, node{feature: -1, value: v})
	return len(b.tree.nodes) - 1
}

func (b *refRegBuilder) bestSplit(idx []int, sumG, sumH float64) (int, float64, bool) {
	lambda := b.cfg.lambda
	parent := sumG * sumG / (sumH + lambda)
	bestGain := 1e-9
	bestFeat, bestThresh := -1, 0.0
	nNode := len(idx)
	for _, i := range idx {
		b.inNode[i] = true
	}
	defer func() {
		for _, i := range idx {
			b.inNode[i] = false
		}
	}()
	for _, f := range b.cols {
		var gl, hl float64
		seen := 0
		prev := -1
		for _, ri32 := range b.presorted[f] {
			i := int(ri32)
			if !b.inNode[i] {
				continue
			}
			if prev >= 0 {
				v, next := b.x[prev][f], b.x[i][f]
				if v != next && hl >= b.cfg.minChildHess && sumH-hl >= b.cfg.minChildHess {
					gr := sumG - gl
					hr := sumH - hl
					gain := gl*gl/(hl+lambda) + gr*gr/(hr+lambda) - parent
					if gain > bestGain {
						bestGain = gain
						bestFeat = f
						bestThresh = (v + next) / 2
					}
				}
			}
			gl += b.grad[i]
			hl += b.hess[i]
			prev = i
			seen++
			if seen == nNode {
				break
			}
		}
	}
	return bestFeat, bestThresh, bestFeat >= 0
}

// sameTrees reports the first difference between two ensembles' node
// slices, comparing floats by bit pattern.
func sameTrees(got, want *GradientBoosting) error {
	if len(got.trees) != len(want.trees) {
		return fmt.Errorf("%d rounds, want %d", len(got.trees), len(want.trees))
	}
	for r := range want.trees {
		for c := range want.trees[r] {
			g, w := got.trees[r][c].nodes, want.trees[r][c].nodes
			if len(g) != len(w) {
				return fmt.Errorf("round %d class %d: %d nodes, want %d", r, c, len(g), len(w))
			}
			for i := range w {
				if g[i].feature != w[i].feature || g[i].left != w[i].left || g[i].right != w[i].right ||
					math.Float64bits(g[i].thresh) != math.Float64bits(w[i].thresh) ||
					math.Float64bits(g[i].value) != math.Float64bits(w[i].value) {
					return fmt.Errorf("round %d class %d node %d: %+v, want %+v", r, c, i, g[i], w[i])
				}
			}
		}
	}
	return nil
}

// goldenData builds a k-class problem whose features exercise the split
// search's edge cases: quantized columns with many tied values, a constant
// column, and duplicated rows.
func goldenData(n, d, k int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	x, y := gaussBlobs(n, d, k, 2, rng)
	for i, row := range x {
		for j := range row {
			switch j % 3 {
			case 1:
				row[j] = math.Round(row[j]) // ties
			case 2:
				row[j] = math.Round(row[j]*4) / 4
			}
		}
		row[d-1] = 1 // constant column: never a candidate
		if i%5 == 4 {
			// Duplicate an earlier row (features and label).
			copy(row, x[i-3])
			y[i] = y[i-3]
		}
	}
	return x, y
}

// TestBoostSplitSearchMatchesReference pins the partitioned split search
// to the whole-column reference scan: identical node slices and bitwise-
// identical probabilities across seeds, subsampling, column sampling,
// depths, class counts, tied columns and both key widths.
func TestBoostSplitSearchMatchesReference(t *testing.T) {
	type tc struct {
		classes   int
		depth     int
		subsample float64
		colSample float64
		minHess   float64 // 0 selects the default (1)
	}
	var cases []tc
	for _, classes := range []int{2, 16} {
		for depth := 1; depth <= 6; depth++ {
			cases = append(cases,
				tc{classes, depth, 0.8, 0.5, 0},
				tc{classes, depth, 1, 1, 0},
				tc{classes, depth, 0.5, 0.3, 0},
				// A tiny minimum hessian lets splits isolate single
				// rows, so one child is a leaf and the other splits on.
				tc{classes, depth, 0.8, 0.5, 1e-4},
			)
		}
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			name := fmt.Sprintf("k%d/depth%d/sub%v/col%v/hess%v/seed%d", c.classes, c.depth, c.subsample, c.colSample, c.minHess, seed)
			x, y := goldenData(160, 9, c.classes, seed)
			if seed == 4 {
				// Tied columns: signed-zero tie groups in every fourth
				// column and adjacent floats (forestData), and a
				// two-valued column.
				x, y = forestData(160, 9, c.classes, seed)
				for i, row := range x {
					row[5] = float64(i % 2)
				}
			}
			cfg := BoostConfig{
				Rounds: 4, MaxDepth: c.depth, Subsample: c.subsample,
				ColSample: c.colSample, MinChildHess: c.minHess, Seed: seed * 31,
			}
			got, err := FitGradientBoosting(x, y, c.classes, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := refFitGradientBoosting(x, y, c.classes, cfg)
			if err := sameTrees(got, want); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			// The 64-bit keys fits of more than 65,536 rows take.
			wcfg := cfg
			wcfg.applyDefaults()
			if err := sameTrees(fitBoosting[uint64](x, y, c.classes, wcfg), want); err != nil {
				t.Fatalf("%s: wide keys: %v", name, err)
			}
			pg, _ := got.PredictProba(x)
			pw, _ := want.PredictProba(x)
			for i := range pw {
				for k := range pw[i] {
					if math.Float64bits(pg[i][k]) != math.Float64bits(pw[i][k]) {
						t.Fatalf("%s: proba[%d][%d] = %v, want %v", name, i, k, pg[i][k], pw[i][k])
					}
				}
			}
		}
	}
}

// BenchmarkFitGradientBoosting fits at the shape of the Table I CMT cell
// (the largest XGB fit of a quick-scale 5GC grid): 1360 rows × 442
// features, 16 classes, 10 rounds of depth-5 trees.
func BenchmarkFitGradientBoosting(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := gaussBlobs(1360, 442, 16, 1.5, rng)
	cfg := BoostConfig{Rounds: 10, MaxDepth: 5, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitGradientBoosting(x, y, 16, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
