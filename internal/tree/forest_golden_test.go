package tree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// This file keeps the historical comparison-sort split search as a
// test-only reference: each tree is grown on a materialized bootstrap copy,
// and every node sorts its rows by each sampled feature with sort.Slice.
// The production rank-keyed builder must reproduce its trees bit for bit.

func refFitRandomForest(x [][]float64, y []int, numClasses int, cfg ForestConfig) *RandomForest {
	if cfg.NumTrees == 0 {
		cfg.NumTrees = 100
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 16
	}
	if cfg.MinLeaf == 0 {
		cfg.MinLeaf = 1
	}
	d := len(x[0])
	if cfg.MaxFeatures == 0 {
		cfg.MaxFeatures = int(math.Sqrt(float64(d))) + 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rf := &RandomForest{numClasses: numClasses}
	n := len(x)
	for t := 0; t < cfg.NumTrees; t++ {
		bx := make([][]float64, n)
		by := make([]int, n)
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			bx[i] = x[j]
			by[i] = y[j]
		}
		rf.trees = append(rf.trees, refFitClassificationTree(bx, by, numClasses, ClassTreeConfig{
			MaxDepth:    cfg.MaxDepth,
			MinLeaf:     cfg.MinLeaf,
			MaxFeatures: cfg.MaxFeatures,
			Rng:         rand.New(rand.NewSource(rng.Int63())),
		}))
	}
	return rf
}

func refFitClassificationTree(x [][]float64, y []int, numClasses int, cfg ClassTreeConfig) *ClassificationTree {
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 12
	}
	if cfg.MinLeaf == 0 {
		cfg.MinLeaf = 1
	}
	d := len(x[0])
	if cfg.MaxFeatures <= 0 || cfg.MaxFeatures > d {
		cfg.MaxFeatures = d
	}
	if cfg.Rng == nil {
		cfg.Rng = rand.New(rand.NewSource(0))
	}
	t := &ClassificationTree{numClasses: numClasses}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	b := &refClassBuilder{x: x, y: y, k: numClasses, cfg: cfg, tree: t}
	b.build(idx, 0)
	return t
}

type refClassBuilder struct {
	x    [][]float64
	y    []int
	k    int
	cfg  ClassTreeConfig
	tree *ClassificationTree
}

func (b *refClassBuilder) build(idx []int, depth int) int {
	counts := make([]float64, b.k)
	for _, i := range idx {
		counts[b.y[i]]++
	}
	pure := 0
	for _, c := range counts {
		if c > 0 {
			pure++
		}
	}
	if depth >= b.cfg.MaxDepth || pure <= 1 || len(idx) < 2*b.cfg.MinLeaf {
		return b.leaf(counts, len(idx))
	}
	feat, thresh, ok := b.bestSplit(idx, counts)
	if !ok {
		return b.leaf(counts, len(idx))
	}
	var left, right []int
	for _, i := range idx {
		if b.x[i][feat] <= thresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.cfg.MinLeaf || len(right) < b.cfg.MinLeaf {
		return b.leaf(counts, len(idx))
	}
	me := len(b.tree.nodes)
	b.tree.nodes = append(b.tree.nodes, node{feature: feat, thresh: thresh})
	l := b.build(left, depth+1)
	r := b.build(right, depth+1)
	b.tree.nodes[me].left = l
	b.tree.nodes[me].right = r
	return me
}

func (b *refClassBuilder) leaf(counts []float64, n int) int {
	dist := make([]float64, b.k)
	if n > 0 {
		for c := range counts {
			dist[c] = counts[c] / float64(n)
		}
	}
	b.tree.nodes = append(b.tree.nodes, node{feature: -1, dist: dist})
	return len(b.tree.nodes) - 1
}

func (b *refClassBuilder) bestSplit(idx []int, counts []float64) (int, float64, bool) {
	n := float64(len(idx))
	parentImp := giniImpurity(counts, n)
	bestGain := 1e-12
	bestFeat, bestThresh := -1, 0.0
	d := len(b.x[0])
	feats := b.cfg.Rng.Perm(d)[:b.cfg.MaxFeatures]
	sorted := make([]int, len(idx))
	leftCounts := make([]float64, b.k)
	for _, f := range feats {
		copy(sorted, idx)
		sort.Slice(sorted, func(a, c int) bool { return b.x[sorted[a]][f] < b.x[sorted[c]][f] })
		for c := range leftCounts {
			leftCounts[c] = 0
		}
		var nl float64
		for pos := 0; pos < len(sorted)-1; pos++ {
			i := sorted[pos]
			leftCounts[b.y[i]]++
			nl++
			v, next := b.x[i][f], b.x[sorted[pos+1]][f]
			if v == next {
				continue
			}
			if int(nl) < b.cfg.MinLeaf || len(sorted)-int(nl) < b.cfg.MinLeaf {
				continue
			}
			nr := n - nl
			impL := giniImpurityLeft(leftCounts, nl)
			impR := giniImpurityRight(counts, leftCounts, nr)
			gain := parentImp - (nl/n)*impL - (nr/n)*impR
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThresh = (v + next) / 2
			}
		}
	}
	return bestFeat, bestThresh, bestFeat >= 0
}

func giniImpurity(counts []float64, n float64) float64 {
	if n == 0 {
		return 0
	}
	imp := 1.0
	for _, c := range counts {
		p := c / n
		imp -= p * p
	}
	return imp
}

func giniImpurityLeft(left []float64, nl float64) float64 {
	return giniImpurity(left, nl)
}

func giniImpurityRight(total, left []float64, nr float64) float64 {
	if nr == 0 {
		return 0
	}
	imp := 1.0
	for c := range total {
		p := (total[c] - left[c]) / nr
		imp -= p * p
	}
	return imp
}

// sameClassTree reports the first difference between two trees' node
// slices, comparing floats by bit pattern.
func sameClassTree(got, want *ClassificationTree) error {
	g, w := got.nodes, want.nodes
	if len(g) != len(w) {
		return fmt.Errorf("%d nodes, want %d", len(g), len(w))
	}
	for i := range w {
		if g[i].feature != w[i].feature || g[i].left != w[i].left || g[i].right != w[i].right ||
			math.Float64bits(g[i].thresh) != math.Float64bits(w[i].thresh) || len(g[i].dist) != len(w[i].dist) {
			return fmt.Errorf("node %d: %+v, want %+v", i, g[i], w[i])
		}
		for c := range w[i].dist {
			if math.Float64bits(g[i].dist[c]) != math.Float64bits(w[i].dist[c]) {
				return fmt.Errorf("node %d dist[%d] = %v, want %v", i, c, g[i].dist[c], w[i].dist[c])
			}
		}
	}
	return nil
}

// forestData is goldenData with signed zeros planted in every fourth
// column, so tie groups mix −0 and +0 rows (and a zero tie group sits next
// to nonzero neighbours on both sides), and three adjacent floats in the
// next-to-last column, where a midpoint threshold rounds onto one of the
// two values it separates (so <= and < split differently).
func forestData(n, d, k int, seed int64) ([][]float64, []int) {
	x, y := goldenData(n, d, k, seed)
	adjacent := []float64{1, math.Nextafter(1, 2), math.Nextafter(math.Nextafter(1, 2), 2)}
	for i, row := range x {
		for j := 0; j < d-1; j += 4 {
			switch i % 3 {
			case 0:
				row[j] = 0
			case 1:
				row[j] = math.Copysign(0, -1)
			}
		}
		row[d-2] = adjacent[(i*7+int(seed))%3]
	}
	return x, y
}

// TestForestSplitSearchMatchesReference pins the rank-keyed forest to the
// sort.Slice reference: identical node slices (thresholds and leaf
// distributions compared by bit pattern) and bitwise-identical
// probabilities, across planted ties and signed zeros, bootstrap
// duplicates, MinLeaf 1 and 3, and every MaxFeatures from 1 to d.
func TestForestSplitSearchMatchesReference(t *testing.T) {
	type tc struct {
		n, d, k     int
		trees       int
		depth       int
		minLeaf     int
		maxFeatures int
	}
	var cases []tc
	for _, minLeaf := range []int{1, 3} {
		for mf := 1; mf <= 9; mf++ {
			cases = append(cases, tc{150, 9, 3, 4, 16, minLeaf, mf})
		}
		cases = append(cases,
			tc{300, 24, 16, 3, 16, minLeaf, 0},
			tc{300, 24, 2, 3, 4, minLeaf, 0},
		)
	}
	// The Table I CMT cell's shape: 1360 rows × 442 features, 16 classes.
	cases = append(cases, tc{1360, 442, 16, 2, 16, 1, 0})
	if testing.Short() {
		cases = cases[:len(cases)-1]
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 2; seed++ {
			name := fmt.Sprintf("%dx%dx%d/depth%d/minleaf%d/mf%d/seed%d", c.n, c.d, c.k, c.depth, c.minLeaf, c.maxFeatures, seed)
			x, y := forestData(c.n, c.d, c.k, seed)
			cfg := ForestConfig{NumTrees: c.trees, MaxDepth: c.depth, MinLeaf: c.minLeaf, MaxFeatures: c.maxFeatures, Seed: seed * 17}
			got, err := FitRandomForest(x, y, c.k, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := refFitRandomForest(x, y, c.k, cfg)
			for i := range want.trees {
				if err := sameClassTree(got.trees[i], want.trees[i]); err != nil {
					t.Fatalf("%s: tree %d: %v", name, i, err)
				}
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

// TestClassificationTreeMatchesReference pins the public single-tree fit,
// which ranks its own input, to the reference on unbootstrapped rows.
func TestClassificationTreeMatchesReference(t *testing.T) {
	for _, minLeaf := range []int{1, 3} {
		for _, mf := range []int{0, 2} {
			x, y := forestData(200, 9, 4, int64(mf+minLeaf))
			cfg := ClassTreeConfig{MinLeaf: minLeaf, MaxFeatures: mf, Rng: rand.New(rand.NewSource(5))}
			got, err := FitClassificationTree(x, y, 4, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Rng = rand.New(rand.NewSource(5))
			if err := sameClassTree(got, refFitClassificationTree(x, y, 4, cfg)); err != nil {
				t.Fatalf("minleaf %d mf %d: %v", minLeaf, mf, err)
			}
		}
	}
}

// BenchmarkFitRandomForest fits at the shape of the Table I CMT cell (the
// largest RF fit of a quick-scale 5GC grid): 1360 rows × 442 features, 16
// classes, 10 trees of depth 16.
func BenchmarkFitRandomForest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := gaussBlobs(1360, 442, 16, 1.5, rng)
	cfg := ForestConfig{NumTrees: 10, MaxDepth: 16, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitRandomForest(x, y, 16, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestForestWideRanksMatchReference drives the 32-bit rank path, which fits
// of more than 65,536 rows take, on small inputs.
func TestForestWideRanksMatchReference(t *testing.T) {
	for _, minLeaf := range []int{1, 3} {
		x, y := forestData(300, 24, 5, int64(minLeaf))
		cfg := ForestConfig{NumTrees: 3, MaxDepth: 16, MinLeaf: minLeaf, MaxFeatures: 5, Seed: 3}
		got := fitForest(x, y, 5, cfg, rankColumns(x, true))
		want := refFitRandomForest(x, y, 5, cfg)
		for i := range want.trees {
			if err := sameClassTree(got.trees[i], want.trees[i]); err != nil {
				t.Fatalf("minleaf %d tree %d: %v", minLeaf, i, err)
			}
		}
	}
}

// TestRankColumns pins the dense ranks: equal values share a rank, −0 ties
// +0, and ranks ascend with the value, at both widths.
func TestRankColumns(t *testing.T) {
	negZero := math.Copysign(0, -1)
	col := []float64{3, negZero, -1.5, 0, 3, math.Inf(1), -1.5, math.SmallestNonzeroFloat64, math.Inf(-1)}
	want := []uint32{4, 2, 1, 2, 4, 5, 1, 3, 0}
	x := make([][]float64, len(col))
	for i, v := range col {
		x[i] = []float64{v, 7}
	}
	for _, wide := range []bool{false, true} {
		cr := rankColumns(x, wide)
		for i, w := range want {
			if got := cr.rank(0, int32(i)); got != w {
				t.Fatalf("wide=%v: rank of %v = %d, want %d", wide, col[i], got, w)
			}
		}
		if cr.maxRank[0] != 5 || cr.maxRank[1] != 0 {
			t.Fatalf("wide=%v: maxRank %v, want [5 0]", wide, cr.maxRank)
		}
	}
}
