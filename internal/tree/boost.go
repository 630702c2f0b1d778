package tree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// BoostConfig configures gradient-boosted trees.
type BoostConfig struct {
	Rounds       int     // boosting rounds; default 60
	MaxDepth     int     // default 4
	LearningRate float64 // shrinkage; default 0.2
	Lambda       float64 // L2 leaf regularization; default 1
	Subsample    float64 // row subsampling per round; default 0.8
	ColSample    float64 // column subsampling per tree; default 0.5
	MinChildHess float64 // minimum hessian per child; default 1
	Seed         int64
}

func (c *BoostConfig) applyDefaults() {
	if c.Rounds == 0 {
		c.Rounds = 60
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 4
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.2
	}
	if c.Lambda == 0 {
		c.Lambda = 1
	}
	if c.Subsample == 0 {
		c.Subsample = 0.8
	}
	if c.ColSample == 0 {
		c.ColSample = 0.5
	}
	if c.MinChildHess == 0 {
		c.MinChildHess = 1
	}
}

// GradientBoosting is a second-order boosted-tree classifier with a softmax
// objective (one regression tree per class per round), in the style of
// XGBoost.
type GradientBoosting struct {
	trees      [][]*regressionTree // [round][class]
	lr         float64
	numClasses int
}

// FitGradientBoosting trains the boosted ensemble.
func FitGradientBoosting(x [][]float64, y []int, numClasses int, cfg BoostConfig) (*GradientBoosting, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("tree: %d rows, %d labels", len(x), len(y))
	}
	if numClasses < 2 {
		return nil, fmt.Errorf("tree: numClasses %d must be >= 2", numClasses)
	}
	cfg.applyDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	n := len(x)
	gb := &GradientBoosting{lr: cfg.LearningRate, numClasses: numClasses}
	// Raw scores per sample per class.
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

	// Presort every feature once; each tree filters these orders to its
	// round's rows and then partitions them per node (see fitRegressionTree).
	presorted := presortColumns(x)
	scratch := newBoostScratch(n, len(x[0]), cfg)
	treeRng := rand.New(rand.NewSource(0))

	for round := 0; round < cfg.Rounds; round++ {
		// Softmax gradients/hessians.
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
		// Row subsample shared by the round.
		rows := subsampleRows(n, cfg.Subsample, rng)
		for _, i := range rows {
			scratch.inRound[i] = true
		}
		roundTrees := make([]*regressionTree, numClasses)
		for c := 0; c < numClasses; c++ {
			// Re-seeding one Rand yields the same stream as a fresh
			// rand.New(rand.NewSource(seed)) without its allocation.
			treeRng.Seed(rng.Int63())
			rt := fitRegressionTree(x, presorted, grads[c], hess[c], rows, regTreeConfig{
				maxDepth:     cfg.MaxDepth,
				lambda:       cfg.Lambda,
				colSample:    cfg.ColSample,
				minChildHess: cfg.MinChildHess,
				rng:          treeRng,
			}, scratch)
			roundTrees[c] = rt
			for i := 0; i < n; i++ {
				scores[i][c] += cfg.LearningRate * rt.predict(x[i])
			}
		}
		for _, i := range rows {
			scratch.inRound[i] = false
		}
		gb.trees = append(gb.trees, roundTrees)
	}
	return gb, nil
}

func subsampleRows(n int, frac float64, rng *rand.Rand) []int {
	if frac >= 1 {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	return rng.Perm(n)[:subsampleSize(n, frac)]
}

// subsampleSize is the number of rows subsampleRows returns.
func subsampleSize(n int, frac float64) int {
	if frac >= 1 {
		return n
	}
	k := int(float64(n) * frac)
	if k < 1 {
		k = 1
	}
	return k
}

// PredictProba returns softmax probabilities of the boosted scores.
func (gb *GradientBoosting) PredictProba(x [][]float64) ([][]float64, error) {
	if len(gb.trees) == 0 {
		return nil, ErrNotTrained
	}
	out := make([][]float64, len(x))
	for i, row := range x {
		scores := make([]float64, gb.numClasses)
		for _, roundTrees := range gb.trees {
			for c, rt := range roundTrees {
				scores[c] += gb.lr * rt.predict(row)
			}
		}
		maxV := scores[0]
		for _, v := range scores[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		p := make([]float64, gb.numClasses)
		for c, v := range scores {
			p[c] = math.Exp(v - maxV)
			sum += p[c]
		}
		for c := range p {
			p[c] /= sum
		}
		out[i] = p
	}
	return out, nil
}

// NumRounds reports the number of boosting rounds trained.
func (gb *GradientBoosting) NumRounds() int { return len(gb.trees) }

// regressionTree is a second-order regression tree on (grad, hess) pairs.
type regressionTree struct {
	nodes []node
}

type regTreeConfig struct {
	maxDepth     int
	lambda       float64
	colSample    float64
	minChildHess float64
	rng          *rand.Rand
}

// presortColumns returns, for each feature, the row indices ordered by that
// feature's value.
func presortColumns(x [][]float64) [][]int32 {
	n := len(x)
	d := len(x[0])
	out := make([][]int32, d)
	for f := 0; f < d; f++ {
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
		col := make([]float64, n)
		for i := range x {
			col[i] = x[i][f]
		}
		sort.Slice(idx, func(a, b int) bool { return col[idx[a]] < col[idx[b]] })
		out[f] = idx
	}
	return out
}

// boostScratch is the split-search working set of one FitGradientBoosting
// call. It is sized once for the largest tree (every row of the round
// subsample, every sampled column) and reused by every tree of every round.
type boostScratch struct {
	inRound []bool  // per row: in the current round's subsample
	goLeft  []uint8 // per row: 1 if it goes left of the split being partitioned
	perm    []int   // column-sample permutation buffer

	// rows holds the tree's rows in subsample order; node segments of it
	// are stably partitioned left-then-right, so sums over a node visit
	// rows in the same order as the round's subsample.
	rows, rowsTmp []int
	// colRows/colVals hold, for the k-th sampled column, a presorted
	// segment of m = len(rows) entries at [k*m, (k+1)*m): row indices and
	// the matching feature values. Node segments of each are partitioned
	// in step with rows.
	colRows []int32
	colVals []float64
	tmpRows []int32
	tmpVals []float64
}

func newBoostScratch(n, d int, cfg BoostConfig) *boostScratch {
	m := subsampleSize(n, cfg.Subsample)
	nCols := treeCols(d, cfg.ColSample)
	return &boostScratch{
		inRound: make([]bool, n),
		goLeft:  make([]uint8, n),
		perm:    make([]int, d),
		rows:    make([]int, m),
		rowsTmp: make([]int, m),
		colRows: make([]int32, nCols*m),
		colVals: make([]float64, nCols*m),
		tmpRows: make([]int32, m),
		tmpVals: make([]float64, m),
	}
}

// treeCols is the number of columns each tree samples.
func treeCols(d int, colSample float64) int {
	nCols := int(float64(d) * colSample)
	if nCols < 1 {
		nCols = 1
	}
	return nCols
}

// fitRegressionTree grows one tree on the rows marked in s.inRound (rows
// lists them in subsample order).
//
// Split search runs in O(node rows × sampled columns) per node rather than
// O(n × sampled columns): the root filters each sampled column's global
// presorted order to the round's rows, and every split stably partitions
// each column's node segment into left then right. By induction a node's
// segment is exactly the global presorted order restricted to the node's
// rows — the order a scan of the whole presorted column that skips
// non-members visits them in — so candidates, gradient sums and
// tie-breaks, and therefore the trees, are bit-identical to that scan
// (kept as the test-only reference in boost_golden_test.go).
func fitRegressionTree(x [][]float64, presorted [][]int32, grad, hess []float64, rows []int, cfg regTreeConfig, s *boostScratch) *regressionTree {
	t := &regressionTree{}
	d := len(x[0])
	cols := permInto(cfg.rng, d, s.perm)[:treeCols(d, cfg.colSample)]
	m := len(rows)
	for k, f := range cols {
		segRows := s.colRows[k*m : (k+1)*m]
		segVals := s.colVals[k*m : (k+1)*m]
		j := 0
		for _, r := range presorted[f] {
			if s.inRound[r] {
				segRows[j] = r
				segVals[j] = x[r][f]
				j++
			}
		}
	}
	copy(s.rows[:m], rows)
	b := &regBuilder{
		grad: grad, hess: hess, cfg: cfg, cols: cols, m: m, s: s, tree: t,
	}
	b.build(0, m, 0)
	return t
}

type regBuilder struct {
	grad, hess []float64
	cfg        regTreeConfig
	cols       []int
	m          int // rows in the tree; the stride of the column segments
	s          *boostScratch
	tree       *regressionTree
}

// build grows the subtree over scratch positions [lo, hi) and returns its
// node index.
func (b *regBuilder) build(lo, hi, depth int) int {
	var sumG, sumH float64
	for _, i := range b.s.rows[lo:hi] {
		sumG += b.grad[i]
		sumH += b.hess[i]
	}
	if depth >= b.cfg.maxDepth || hi-lo < 2 {
		return b.leaf(sumG, sumH)
	}
	k, thresh, ok := b.bestSplit(lo, hi, sumG, sumH)
	if !ok {
		return b.leaf(sumG, sumH)
	}
	nl := b.markSides(k, lo, hi, thresh)
	if nl == 0 || nl == hi-lo {
		return b.leaf(sumG, sumH)
	}
	b.partition(lo, hi, nl, depth)
	mid := lo + nl
	me := len(b.tree.nodes)
	b.tree.nodes = append(b.tree.nodes, node{feature: b.cols[k], thresh: thresh})
	l := b.build(lo, mid, depth+1)
	r := b.build(mid, hi, depth+1)
	b.tree.nodes[me].left = l
	b.tree.nodes[me].right = r
	return me
}

// markSides records in s.goLeft which of the node's rows go left
// (value <= thresh on the k-th sampled column) and returns their count.
func (b *regBuilder) markSides(k, lo, hi int, thresh float64) int {
	base := k * b.m
	vals := b.s.colVals[base+lo : base+hi]
	nl := 0
	for j, r := range b.s.colRows[base+lo : base+hi] {
		var left uint8
		if vals[j] <= thresh {
			left = 1
		}
		b.s.goLeft[r] = left
		nl += int(left)
	}
	return nl
}

// partition stably moves the node's left rows ahead of its right rows, in
// rows and — unless both children are sure to be leaves, which never
// search for a split — in every column segment.
func (b *regBuilder) partition(lo, hi, nl, depth int) {
	// The loops are branch-free — each element is written to both
	// destinations and only the matching cursor advances — because the
	// side of a row is unpredictable. Writing at l is safe: l never
	// passes the element being read.
	s := b.s
	goLeft := s.goLeft
	l, r := lo, 0
	for _, i := range s.rows[lo:hi] {
		g := int(goLeft[i])
		s.rows[l] = i
		s.rowsTmp[r] = i
		l += g
		r += 1 - g
	}
	copy(s.rows[l:hi], s.rowsTmp[:r])

	leafNext := depth+1 >= b.cfg.maxDepth
	if leafNext || (nl < 2 && hi-lo-nl < 2) {
		return
	}
	tmpRows, tmpVals := s.tmpRows, s.tmpVals
	for k := range b.cols {
		base := k * b.m
		rows := s.colRows[base+lo : base+hi]
		vals := s.colVals[base+lo : base+hi]
		l, r := 0, 0
		for j, i := range rows {
			v := vals[j]
			g := int(goLeft[i])
			rows[l] = i
			vals[l] = v
			tmpRows[r] = i
			tmpVals[r] = v
			l += g
			r += 1 - g
		}
		copy(rows[l:], tmpRows[:r])
		copy(vals[l:], tmpVals[:r])
	}
}

func (b *regBuilder) leaf(sumG, sumH float64) int {
	v := -sumG / (sumH + b.cfg.lambda)
	b.tree.nodes = append(b.tree.nodes, node{feature: -1, value: v})
	return len(b.tree.nodes) - 1
}

// bestSplit maximizes the XGBoost structure gain over the node's segment
// of each sampled column and returns the winning column's position in
// b.cols.
func (b *regBuilder) bestSplit(lo, hi int, sumG, sumH float64) (int, float64, bool) {
	lambda := b.cfg.lambda
	minHess := b.cfg.minChildHess
	parent := sumG * sumG / (sumH + lambda)
	bestGain := 1e-9
	bestK, bestThresh := -1, 0.0

	for k := range b.cols {
		base := k * b.m
		rows := b.s.colRows[base+lo : base+hi]
		vals := b.s.colVals[base+lo : base+hi]
		var gl, hl float64
		for j, r := range rows {
			if j > 0 {
				if sumH-hl < minHess {
					// hl never decreases (hessians are positive), so no
					// later cut leaves the right child enough hessian.
					break
				}
				// Candidate cut between the previous row and this one.
				v, next := vals[j-1], vals[j]
				if v != next && hl >= minHess {
					gr := sumG - gl
					hr := sumH - hl
					gain := gl*gl/(hl+lambda) + gr*gr/(hr+lambda) - parent
					if gain > bestGain {
						bestGain = gain
						bestK = k
						bestThresh = (v + next) / 2
					}
				}
			}
			gl += b.grad[r]
			hl += b.hess[r]
		}
	}
	return bestK, bestThresh, bestK >= 0
}

func (t *regressionTree) predict(row []float64) float64 {
	cur := 0
	for {
		nd := &t.nodes[cur]
		if nd.feature < 0 {
			return nd.value
		}
		if row[nd.feature] <= nd.thresh {
			cur = nd.left
		} else {
			cur = nd.right
		}
	}
}
