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
	if len(x) <= 1<<16 {
		return fitBoosting[uint32](x, y, numClasses, cfg), nil
	}
	return fitBoosting[uint64](x, y, numClasses, cfg), nil
}

// fitBoosting trains the ensemble with K-wide column-segment keys.
func fitBoosting[K segKey](x [][]float64, y []int, numClasses int, cfg BoostConfig) *GradientBoosting {
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

	// Presort every feature once; each round filters these orders to its
	// rows, and each tree partitions them per node (see fitRegressionTree).
	presorted := presortColumns(x)
	bounds := presortBounds(x, presorted)
	scratch := newBoostScratch[K](n, len(x[0]), cfg)
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
		scratch.filterRound(presorted, bounds, rows)
		roundTrees := make([]*regressionTree, numClasses)
		for c := 0; c < numClasses; c++ {
			// Re-seeding one Rand yields the same stream as a fresh
			// rand.New(rand.NewSource(seed)) without its allocation.
			treeRng.Seed(rng.Int63())
			rt := fitRegressionTree(x, grads[c], hess[c], rows, regTreeConfig{
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
		gb.trees = append(gb.trees, roundTrees)
	}
	return gb
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
// feature's value. The order of tied rows is whatever sort.Slice leaves,
// and it is part of the result: the boosted trees' gradient sums visit
// tied rows in this order.
func presortColumns(x [][]float64) [][]int32 {
	n := len(x)
	d := len(x[0])
	out := make([][]int32, d)
	col := make([]float64, n)
	for f := 0; f < d; f++ {
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
		for i := range x {
			col[i] = x[i][f]
		}
		sort.Slice(idx, func(a, b int) bool { return col[idx[a]] < col[idx[b]] })
		out[f] = idx
	}
	return out
}

// presortBounds marks, for each feature, the positions p > 0 of its
// presorted order whose value differs from the one before: bit p of the
// feature's words(n)-word run. Counting the marks along a presorted order
// gives each row its dense rank, so two rows hold equal values exactly
// when their ranks are equal (for NaN-free columns, which sort totally).
func presortBounds(x [][]float64, presorted [][]int32) []uint64 {
	w := words(len(x))
	bounds := make([]uint64, len(presorted)*w)
	for f, order := range presorted {
		bits := bounds[f*w : (f+1)*w]
		for p := 1; p < len(order); p++ {
			if x[order[p]][f] != x[order[p-1]][f] {
				bits[p>>6] |= 1 << (p & 63)
			}
		}
	}
	return bounds
}

// words is the number of 64-bit words holding n bits.
func words(n int) int { return (n + 63) / 64 }

// segKey is a column-segment key: a row's dense rank in the column in the
// high half and the row index in the low half. The rank orders the
// segment and tells tied rows from candidate cuts without carrying the
// float64 values. Fits of up to 65,536 rows use uint32 keys (16+16 bits),
// larger ones uint64 (32+32).
type segKey interface{ uint32 | uint64 }

// halfBits is the width of each half of a K key.
func halfBits[K segKey]() uint {
	var k K
	if uint64(^k) == math.MaxUint32 {
		return 16
	}
	return 32
}

// boostScratch is the split-search working set of one FitGradientBoosting
// call. It is sized once for the largest tree (every row of the round
// subsample, every sampled column) and reused by every tree of every round.
type boostScratch[K segKey] struct {
	inRound []uint8 // per row: 1 while filterRound runs, if in the round
	goLeft  []uint8 // per row: 1 if it goes left of the split being partitioned
	perm    []int   // column-sample permutation buffer

	// rows holds the tree's rows in subsample order; node segments of it
	// are stably partitioned left-then-right, so sums over a node visit
	// rows in the same order as the round's subsample.
	rows, rowsTmp []int
	// round holds, for every feature f, the round's rows in presorted
	// order at [f*m, (f+1)*m), m = len(rows), plus one slack key. Every
	// tree of the round reads its root segments here.
	round []K
	// segs holds, for the k-th sampled column of the current tree, its
	// node segments below the root at [k*m, (k+1)*m); the root's
	// partition writes them, and each later split partitions them in
	// place.
	segs []K
	tmp  []K
	// rowMask selects a key's row index; two keys' ranks differ exactly
	// when their XOR exceeds it.
	rowMask K
}

func newBoostScratch[K segKey](n, d int, cfg BoostConfig) *boostScratch[K] {
	m := subsampleSize(n, cfg.Subsample)
	return &boostScratch[K]{
		inRound: make([]uint8, n),
		goLeft:  make([]uint8, n),
		perm:    make([]int, d),
		rows:    make([]int, m),
		rowsTmp: make([]int, m),
		round:   make([]K, d*m+1),
		segs:    make([]K, treeCols(d, cfg.ColSample)*m),
		tmp:     make([]K, m),
		rowMask: K(1)<<halfBits[K]() - 1,
	}
}

// filterRound fills s.round with every feature's presorted order
// restricted to rows, once for all the round's trees. Row r's key is
// written at each position, and the cursor advances only past round rows
// — branch-free, since membership is random; the key a non-member leaves
// at the cursor is overwritten by the next member, or lands in the next
// feature's first slot (rewritten when that feature is filtered) or in the
// slack key after the last feature.
func (s *boostScratch[K]) filterRound(presorted [][]int32, bounds []uint64, rows []int) {
	for _, r := range rows {
		s.inRound[r] = 1
	}
	m := len(rows)
	w := words(len(s.inRound))
	half := halfBits[K]()
	for f, order := range presorted {
		seg := s.round[f*m : f*m+m+1]
		bits := bounds[f*w : (f+1)*w]
		var rank K // shifted into the high half
		j := 0
		for p, r := range order {
			rank += K(bits[p>>6]>>(p&63)&1) << half
			seg[j] = rank | K(r)
			j += int(s.inRound[r])
		}
	}
	for _, r := range rows {
		s.inRound[r] = 0
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

// fitRegressionTree grows one tree on the round's rows (rows lists them in
// subsample order; s.round holds the round's column segments).
//
// Split search runs in O(node rows × sampled columns) per node rather than
// O(n × sampled columns): the round filters each column's global presorted
// order to its rows once, and every split stably partitions each sampled
// column's node segment into left then right. By induction a node's
// segment is exactly the global presorted order restricted to the node's
// rows — the order a scan of the whole presorted column that skips
// non-members visits them in — so candidates, gradient sums and
// tie-breaks, and therefore the trees, are bit-identical to that scan
// (kept as the test-only reference in boost_golden_test.go). Two keys of a
// segment hold equal values exactly when their ranks are equal, and the
// threshold and the left/right test read the values from x, so the keys
// need not carry them.
func fitRegressionTree[K segKey](x [][]float64, grad, hess []float64, rows []int, cfg regTreeConfig, s *boostScratch[K]) *regressionTree {
	t := &regressionTree{}
	d := len(x[0])
	cols := permInto(cfg.rng, d, s.perm)[:treeCols(d, cfg.colSample)]
	m := len(rows)
	copy(s.rows[:m], rows)
	b := &regBuilder[K]{
		x: x, grad: grad, hess: hess, cfg: cfg, cols: cols, m: m, s: s, tree: t,
	}
	b.build(0, m, 0)
	return t
}

type regBuilder[K segKey] struct {
	x          [][]float64
	grad, hess []float64
	cfg        regTreeConfig
	cols       []int
	m          int // rows in the tree; the stride of the column segments
	s          *boostScratch[K]
	tree       *regressionTree
}

// seg returns scratch positions [lo, hi) of the k-th sampled column's
// segment for a node at depth: the root reads the round's shared segment,
// deeper nodes the tree's own.
func (b *regBuilder[K]) seg(k, lo, hi, depth int) []K {
	if depth == 0 {
		base := b.cols[k] * b.m
		return b.s.round[base+lo : base+hi]
	}
	base := k * b.m
	return b.s.segs[base+lo : base+hi]
}

// build grows the subtree over scratch positions [lo, hi) and returns its
// node index.
func (b *regBuilder[K]) build(lo, hi, depth int) int {
	var sumG, sumH float64
	for _, i := range b.s.rows[lo:hi] {
		sumG += b.grad[i]
		sumH += b.hess[i]
	}
	if depth >= b.cfg.maxDepth || hi-lo < 2 {
		return b.leaf(sumG, sumH)
	}
	k, thresh, ok := b.bestSplit(lo, hi, depth, sumG, sumH)
	if !ok {
		return b.leaf(sumG, sumH)
	}
	nl := b.markSides(k, lo, hi, depth, thresh)
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
func (b *regBuilder[K]) markSides(k, lo, hi, depth int, thresh float64) int {
	f := b.cols[k]
	mask := b.s.rowMask
	nl := 0
	for _, key := range b.seg(k, lo, hi, depth) {
		r := key & mask
		var left uint8
		if b.x[r][f] <= thresh {
			left = 1
		}
		b.s.goLeft[r] = left
		nl += int(left)
	}
	return nl
}

// partition stably moves the node's left rows ahead of its right rows, in
// rows and — unless both children are sure to be leaves, which never
// search for a split — in every column segment. At the root the segments
// move from the round's shared table into the tree's own.
func (b *regBuilder[K]) partition(lo, hi, nl, depth int) {
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
	tmp, mask := s.tmp, s.rowMask
	for k := range b.cols {
		src := b.seg(k, lo, hi, depth)
		dst := s.segs[k*b.m+lo : k*b.m+hi]
		l, r := 0, 0
		for _, key := range src {
			g := int(goLeft[key&mask])
			dst[l] = key
			tmp[r] = key
			l += g
			r += 1 - g
		}
		copy(dst[l:], tmp[:r])
	}
}

func (b *regBuilder[K]) leaf(sumG, sumH float64) int {
	v := -sumG / (sumH + b.cfg.lambda)
	b.tree.nodes = append(b.tree.nodes, node{feature: -1, value: v})
	return len(b.tree.nodes) - 1
}

// bestSplit maximizes the XGBoost structure gain over the node's segment
// of each sampled column and returns the winning column's position in
// b.cols.
func (b *regBuilder[K]) bestSplit(lo, hi, depth int, sumG, sumH float64) (int, float64, bool) {
	lambda := b.cfg.lambda
	minHess := b.cfg.minChildHess
	parent := sumG * sumG / (sumH + lambda)
	bestGain := 1e-9
	bestK, bestThresh := -1, 0.0
	mask := b.s.rowMask

	for k, f := range b.cols {
		seg := b.seg(k, lo, hi, depth)
		prev := seg[0]
		var gl, hl float64
		gl += b.grad[prev&mask]
		hl += b.hess[prev&mask]
		for _, key := range seg[1:] {
			if sumH-hl < minHess {
				// hl never decreases (hessians are positive), so no
				// later cut leaves the right child enough hessian.
				break
			}
			// Candidate cut between the previous row and this one, where
			// their values differ.
			if key^prev > mask && hl >= minHess {
				gr := sumG - gl
				hr := sumH - hl
				gain := gl*gl/(hl+lambda) + gr*gr/(hr+lambda) - parent
				if gain > bestGain {
					bestGain = gain
					bestK = k
					bestThresh = (b.x[prev&mask][f] + b.x[key&mask][f]) / 2
				}
			}
			r := key & mask
			gl += b.grad[r]
			hl += b.hess[r]
			prev = key
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
