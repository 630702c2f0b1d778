// Package tree implements decision-tree learners: CART classification
// trees, bootstrap-aggregated random forests, and second-order gradient-
// boosted trees (an XGBoost-style learner). These provide the RF and XGB
// classifier families used in the paper's Table I.
package tree

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrNotTrained is returned when predicting with an unfitted model.
var ErrNotTrained = errors.New("tree: model not trained")

// node is one tree node (internal or leaf) in a flattened tree.
type node struct {
	feature int     // split feature; -1 for leaf
	thresh  float64 // split threshold (go left when value <= thresh)
	left    int     // child indices into the node slice
	right   int
	dist    []float64 // leaf class distribution (classification)
	value   float64   // leaf value (regression)
}

// ClassTreeConfig configures a CART classification tree.
type ClassTreeConfig struct {
	MaxDepth    int // default 12
	MinLeaf     int // minimum samples per leaf; default 1
	MaxFeatures int // features sampled per split; default all
	Rng         *rand.Rand
}

// ClassificationTree is a CART tree with gini splitting.
type ClassificationTree struct {
	nodes      []node
	numClasses int
}

// FitClassificationTree builds a tree on the given rows.
func FitClassificationTree(x [][]float64, y []int, numClasses int, cfg ClassTreeConfig) (*ClassificationTree, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("tree: %d rows, %d labels", len(x), len(y))
	}
	if numClasses < 2 {
		return nil, fmt.Errorf("tree: numClasses %d must be >= 2", numClasses)
	}
	cfg.applyDefaults(len(x[0]))
	rows := make([]int32, len(x))
	for i := range rows {
		rows[i] = int32(i)
	}
	return newClassBuilder(x, y, numClasses, rankColumns(x, len(x) > 1<<16)).fit(rows, cfg), nil
}

func (c *ClassTreeConfig) applyDefaults(d int) {
	if c.MaxDepth == 0 {
		c.MaxDepth = 12
	}
	if c.MinLeaf == 0 {
		c.MinLeaf = 1
	}
	if c.MaxFeatures <= 0 || c.MaxFeatures > d {
		c.MaxFeatures = d
	}
	if c.Rng == nil {
		c.Rng = rand.New(rand.NewSource(0))
	}
}

// columnRanks holds every feature's dense value rank per row, column-major
// (feature f's ranks at [f*n, (f+1)*n)): ranks ascend with the value, and
// equal values — −0 and +0 included — share a rank. Exactly one of r16
// and r32 is set; r16 holds every rank of up to 65,536 rows.
type columnRanks struct {
	n       int
	r16     []uint16
	r32     []uint32
	maxRank []uint32 // per feature; 0 means the column is constant
}

// rankColumns ranks each column of x once, into 32-bit ranks if wide (more
// than 65,536 rows need them) and 16-bit ones otherwise. It sorts each
// column with a stable least-significant-digit radix sort on
// order-preserving keys of the values (−0 keyed as +0). NaN, outside the
// domain the fits support, ranks by its bit pattern.
func rankColumns(x [][]float64, wide bool) *columnRanks {
	n, d := len(x), len(x[0])
	cr := &columnRanks{n: n, maxRank: make([]uint32, d)}
	if wide {
		cr.r32 = make([]uint32, d*n)
	} else {
		cr.r16 = make([]uint16, d*n)
	}
	keys, keysTmp := make([]uint64, n), make([]uint64, n)
	rows, rowsTmp := make([]int32, n), make([]int32, n)
	for f := 0; f < d; f++ {
		var count [8][256]int
		for i, row := range x {
			key := orderedKey(row[f])
			keys[i] = key
			rows[i] = int32(i)
			for p := range count {
				count[p][byte(key>>(8*p))]++
			}
		}
		k, r, kt, rt := keys, rows, keysTmp, rowsTmp
		for p := range count {
			shift := uint(8 * p)
			c := &count[p]
			if c[byte(k[0]>>shift)] == n {
				continue // every key has this byte
			}
			sum := 0
			for digit, cnt := range c {
				c[digit] = sum
				sum += cnt
			}
			for j, key := range k {
				digit := byte(key >> shift)
				kt[c[digit]] = key
				rt[c[digit]] = r[j]
				c[digit]++
			}
			k, kt = kt, k
			r, rt = rt, r
		}
		var rank uint32
		for p, i := range r {
			if p > 0 && k[p] != k[p-1] {
				rank++
			}
			if cr.r16 != nil {
				cr.r16[f*n+int(i)] = uint16(rank)
			} else {
				cr.r32[f*n+int(i)] = rank
			}
		}
		cr.maxRank[f] = rank
	}
	return cr
}

// orderedKey maps v to a uint64 whose unsigned order is v's numeric order;
// −0 and +0 map to the same key.
func orderedKey(v float64) uint64 {
	b := math.Float64bits(v)
	if b == 1<<63 {
		b = 0 // −0
	}
	// Negative values flip every bit; the rest flip only the sign bit.
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// rank returns feature f's rank of row i.
func (cr *columnRanks) rank(f int, i int32) uint32 {
	if cr.r16 != nil {
		return uint32(cr.r16[f*cr.n+int(i)])
	}
	return cr.r32[f*cr.n+int(i)]
}

// classBuilder grows classification trees over one ranked training set; a
// forest reuses one builder (and its scratch) for every tree.
type classBuilder struct {
	x     [][]float64
	y     []int
	k     int
	ranks *columnRanks
	cfg   ClassTreeConfig
	tree  *ClassificationTree

	// Split-scan scratch, shared across the whole build: every buffer is
	// fully (re)written before use and consumed before the recursion into
	// the children, so one instance of each suffices for every tree.
	counts     []int64
	leftCounts []int64
	keys, tmp  []uint64
	part       []int32
	perm       []int
}

func newClassBuilder(x [][]float64, y []int, numClasses int, ranks *columnRanks) *classBuilder {
	n := len(x)
	return &classBuilder{
		x: x, y: y, k: numClasses, ranks: ranks,
		counts:     make([]int64, numClasses),
		leftCounts: make([]int64, numClasses),
		keys:       make([]uint64, n),
		tmp:        make([]uint64, n),
		part:       make([]int32, 0, n),
		perm:       make([]int, len(x[0])),
	}
}

// fit grows one tree on rows (indices into x; repeats allowed, as in a
// bootstrap sample). It reorders rows in place.
func (b *classBuilder) fit(rows []int32, cfg ClassTreeConfig) *ClassificationTree {
	b.cfg = cfg
	b.tree = &ClassificationTree{numClasses: b.k}
	b.build(rows, 0)
	return b.tree
}

// build grows the subtree for idx and returns its node index. It may
// reorder idx in place (the stable left/right partition), which is safe:
// callers never read idx again after the call.
func (b *classBuilder) build(idx []int32, depth int) int {
	counts := b.counts
	for c := range counts {
		counts[c] = 0
	}
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
	// Stable in-place partition: left-goers compact to the idx prefix in
	// order, right-goers stage through the shared scratch.
	nl := 0
	scratch := b.part[:0]
	for _, i := range idx {
		if b.x[i][feat] <= thresh {
			idx[nl] = i
			nl++
		} else {
			scratch = append(scratch, i)
		}
	}
	copy(idx[nl:], scratch)
	left, right := idx[:nl], idx[nl:]
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

func (b *classBuilder) leaf(counts []int64, n int) int {
	dist := make([]float64, b.k)
	if n > 0 {
		for c := range counts {
			dist[c] = float64(counts[c]) / float64(n)
		}
	}
	b.tree.nodes = append(b.tree.nodes, node{feature: -1, dist: dist})
	return len(b.tree.nodes) - 1
}

// bestSplit scans a random feature subset for the gini-optimal threshold.
//
// Each feature's node rows are sorted as rank<<32 | label keys. The order
// of rows within a tie group cannot change the result: the left counts are
// whole numbers, candidates sit only where the rank changes, so every
// candidate sees the same counts, and the first strictly better gain wins
// in feature-then-value order. The threshold (v+next)/2 reads
// one row of each tie group beside the winning cut; all rows of a group
// hold equal values, and where they differ only in the sign of zero the
// other operand is nonzero, and x + (±0) == x for any nonzero x.
//
// The gain of a candidate is evaluated with the exact gini arithmetic only
// when a cheap bound says it may beat the best so far (see screenGain).
func (b *classBuilder) bestSplit(idx []int32, counts []int64) (int, float64, bool) {
	n := float64(len(idx))
	m := len(idx)
	parentImp := gini(counts, n)
	base := parentImp - 1
	var sumSq int64
	for _, c := range counts {
		sumSq += c * c
	}
	margin := screenMargin(b.k)
	bestGain := 1e-12
	cut := bestGain - margin
	bestFeat := -1
	var bestLo, bestHi uint32 // the ranks on either side of the best cut

	d := len(b.x[0])
	feats := permInto(b.cfg.Rng, d, b.perm)[:b.cfg.MaxFeatures]
	left := b.leftCounts
	minLeaf := b.cfg.MinLeaf
	for _, f := range feats {
		if b.ranks.maxRank[f] == 0 {
			continue // a constant column has no candidate
		}
		keys := b.sortedKeys(f, idx)
		for c := range left {
			left[c] = 0
		}
		// sqL and sqR are Σ left[c]² and Σ right[c]², kept exact in
		// integers as rows move from the right child to the left.
		sqL, sqR := int64(0), sumSq
		for pos := 0; pos < m-1; pos++ {
			key := keys[pos]
			c := uint32(key)
			l := left[c]
			sqL += 2*l + 1
			sqR -= 2*(counts[c]-l) - 1
			left[c] = l + 1
			lo, hi := uint32(key>>32), uint32(keys[pos+1]>>32)
			if lo == hi {
				continue
			}
			if pos+1 < minLeaf || m-(pos+1) < minLeaf {
				continue
			}
			nl := float64(pos + 1)
			nr := n - nl
			if screenGain(base, sqL, sqR, nl, nr, n) < cut {
				continue
			}
			impL := gini(left, nl)
			impR := giniRight(counts, left, nr)
			gain := parentImp - (nl/n)*impL - (nr/n)*impR
			if gain > bestGain {
				bestGain = gain
				cut = bestGain - margin
				bestFeat = f
				bestLo, bestHi = lo, hi
			}
		}
	}
	if bestFeat < 0 {
		return -1, 0, false
	}
	var v, next float64
	for _, i := range idx {
		switch b.ranks.rank(bestFeat, i) {
		case bestLo:
			v = b.x[i][bestFeat]
		case bestHi:
			next = b.x[i][bestFeat]
		}
	}
	return bestFeat, (v + next) / 2, true
}

// screenGain is a cheap estimate of the gini gain of a cut with nl rows
// left and nr right: algebraically the gain is
//
//	parentImp − (nl/n)(1 − sqL/nl²) − (nr/n)(1 − sqR/nr²)
//	  = (parentImp − 1) + (sqL/nl + sqR/nr)/n,
//
// which costs two divisions where the exact arithmetic costs two per class.
func screenGain(base float64, sqL, sqR int64, nl, nr, n float64) float64 {
	return base + (float64(sqL)/nl+float64(sqR)/nr)/n
}

// screenMargin bounds |screenGain − exact gain| for k classes, with a wide
// safety factor. The exact gain rounds about 2k+14 times and the estimate
// about 8 times, each step's error at most one unit roundoff (2⁻⁵³ ≈
// 1.1e-16) of a quantity no larger than 1 in magnitude, so the two differ
// by under (2k+22)·1.1e-16; the margin is more than four times that. A
// candidate whose estimate falls below bestGain − margin therefore has an
// exact gain below bestGain and could not have been taken, so skipping it
// changes no result.
func screenMargin(k int) float64 {
	return float64(k+16) * 1e-15
}

// insertionMax is the node size up to which sortedKeys insertion-sorts;
// larger nodes take the radix sort.
const insertionMax = 32

// sortedKeys returns feature f's rank<<32 | label keys of the node rows,
// ordered by rank (stably, though the order within a rank is immaterial).
func (b *classBuilder) sortedKeys(f int, idx []int32) []uint64 {
	m := len(idx)
	keys := b.keys[:m]
	if r := b.ranks.r16; r != nil {
		col := r[f*b.ranks.n : (f+1)*b.ranks.n]
		for j, i := range idx {
			keys[j] = uint64(col[i])<<32 | uint64(b.y[i])
		}
	} else {
		col := b.ranks.r32[f*b.ranks.n : (f+1)*b.ranks.n]
		for j, i := range idx {
			keys[j] = uint64(col[i])<<32 | uint64(b.y[i])
		}
	}
	if m <= insertionMax {
		for j := 1; j < m; j++ {
			key := keys[j]
			p := j
			for ; p > 0 && keys[p-1]>>32 > key>>32; p-- {
				keys[p] = keys[p-1]
			}
			keys[p] = key
		}
		return keys
	}
	return radixSortRanks(keys, b.tmp[:m], b.ranks.maxRank[f])
}

// radixSortRanks sorts keys by their high 32 bits (values <= maxRank) with
// a stable least-significant-digit radix sort over bytes, using tmp as the
// second buffer, and returns whichever buffer holds the result. A byte
// that is the same for every key costs its histogram pass only.
func radixSortRanks(keys, tmp []uint64, maxRank uint32) []uint64 {
	for shift := uint(32); shift < 64 && maxRank>>(shift-32) != 0; shift += 8 {
		var count [256]int
		for _, key := range keys {
			count[byte(key>>shift)]++
		}
		if count[byte(keys[0]>>shift)] == len(keys) {
			continue
		}
		sum := 0
		for i, c := range count {
			count[i] = sum
			sum += c
		}
		for _, key := range keys {
			digit := byte(key >> shift)
			tmp[count[digit]] = key
			count[digit]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// permInto fills buf with a pseudo-random permutation of [0, n), consuming
// exactly the same rng draws — and producing exactly the same permutation —
// as rng.Perm(n), so feature subsampling is unchanged by the buffer reuse.
func permInto(rng *rand.Rand, n int, buf []int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	buf = buf[:n]
	// Mirrors rand.Perm exactly, including the i == 0 iteration whose
	// Intn(1) draw advances the rng state.
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		buf[i] = buf[j]
		buf[j] = i
	}
	return buf
}

// gini is 1 − Σ (counts[c]/n)², subtracted in class order (n > 0). The
// integer counts convert to float64 exactly, so these are the bits of the
// same sums over float64 counters.
func gini(counts []int64, n float64) float64 {
	imp := 1.0
	for _, c := range counts {
		p := float64(c) / n
		imp -= p * p
	}
	return imp
}

// giniRight is gini of the right child's counts, total − left (nr > 0).
func giniRight(total, left []int64, nr float64) float64 {
	imp := 1.0
	for c := range total {
		p := float64(total[c]-left[c]) / nr
		imp -= p * p
	}
	return imp
}

// PredictProba returns the class distribution for each row.
func (t *ClassificationTree) PredictProba(x [][]float64) ([][]float64, error) {
	if len(t.nodes) == 0 {
		return nil, ErrNotTrained
	}
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = append([]float64(nil), t.traverse(row).dist...)
	}
	return out, nil
}

func (t *ClassificationTree) traverse(row []float64) *node {
	cur := 0
	for {
		nd := &t.nodes[cur]
		if nd.feature < 0 {
			return nd
		}
		if row[nd.feature] <= nd.thresh {
			cur = nd.left
		} else {
			cur = nd.right
		}
	}
}

// NumNodes reports the tree size (useful in tests and benchmarks).
func (t *ClassificationTree) NumNodes() int { return len(t.nodes) }
