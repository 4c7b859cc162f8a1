package xtree

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/subspace"
	"repro/internal/vector"
)

// Config tunes X-tree construction.
type Config struct {
	// MaxEntries is the normal node capacity M (entries per node
	// before a split is attempted). Default 16.
	MaxEntries int
	// MinFillFraction is the R*-tree minimum fill ratio for
	// topological splits and the X-tree MIN_FANOUT balance bound for
	// overlap-minimal splits. Default 0.35.
	MinFillFraction float64
	// MaxOverlapFraction is the X-tree MAX_OVERLAP threshold: a
	// directory split whose halves overlap (intersection volume over
	// union volume) more than this is rejected in favour of the
	// overlap-minimal split or a supernode. Default 0.2.
	MaxOverlapFraction float64
}

// DefaultConfig returns the parameters recommended by the X-tree
// paper (MAX_OVERLAP = 20%, MIN_FANOUT = 35%).
func DefaultConfig() Config {
	return Config{MaxEntries: 16, MinFillFraction: 0.35, MaxOverlapFraction: 0.2}
}

func (c *Config) normalize() error {
	if c.MaxEntries == 0 {
		c.MaxEntries = 16
	}
	if c.MaxEntries < 4 {
		return fmt.Errorf("xtree: MaxEntries %d too small (min 4)", c.MaxEntries)
	}
	if c.MinFillFraction == 0 {
		c.MinFillFraction = 0.35
	}
	if c.MinFillFraction < 0 || c.MinFillFraction > 0.5 {
		return fmt.Errorf("xtree: MinFillFraction %v out of (0,0.5]", c.MinFillFraction)
	}
	if c.MaxOverlapFraction == 0 {
		c.MaxOverlapFraction = 0.2
	}
	if c.MaxOverlapFraction < 0 || c.MaxOverlapFraction > 1 {
		return fmt.Errorf("xtree: MaxOverlapFraction %v out of (0,1]", c.MaxOverlapFraction)
	}
	return nil
}

func (c Config) minFill() int {
	m := int(math.Floor(c.MinFillFraction * float64(c.MaxEntries)))
	if m < 1 {
		m = 1
	}
	return m
}

// Tree is an X-tree over the points of a Dataset. The tree stores
// point indices; coordinates stay in the dataset. After construction
// the tree lives entirely in a pointer-free node arena (see arena.go);
// the linked nodes exist only while Build or Decode assembles the
// structure.
type Tree struct {
	ds     *vector.Dataset
	metric vector.Metric
	cfg    Config
	root   *node // build/decode scaffolding; nil once packed
	ar     arena
	size   int

	supernodes int          // number of supernode creations
	sc         buildScratch // construction workspace; Build and Append drop it
}

// Build constructs an X-tree by inserting every point of ds.
func Build(ds *vector.Dataset, metric vector.Metric, cfg Config) (*Tree, error) {
	if ds == nil {
		return nil, fmt.Errorf("xtree: nil dataset")
	}
	if !metric.Valid() {
		return nil, fmt.Errorf("xtree: invalid metric %v", metric)
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	t := &Tree{
		ds:     ds,
		metric: metric,
		cfg:    cfg,
		root:   &node{leaf: true, mbr: EmptyMBR(ds.Dim())},
	}
	for i := 0; i < ds.N(); i++ {
		t.insert(i)
	}
	t.pack(t.root)
	t.root, t.sc = nil, buildScratch{}
	return t, nil
}

// Size returns the number of indexed points.
func (t *Tree) Size() int { return t.size }

// SupernodeCount returns how many supernodes exist in the tree.
func (t *Tree) SupernodeCount() int {
	count := 0
	for i := range t.ar.nodes {
		n := &t.ar.nodes[i]
		if n.isSuper() && n.entryCount() > t.cfg.MaxEntries {
			count++
		}
	}
	return count
}

// NodeCount returns the total number of nodes.
func (t *Tree) NodeCount() int { return len(t.ar.nodes) }

func (t *Tree) pointOf(i int) []float64 { return t.ds.Point(i) }

// insert adds dataset point idx to the tree.
func (t *Tree) insert(idx int) {
	p := t.pointOf(idx)
	leaf := t.chooseLeaf(t.root, p)
	leaf.points = append(leaf.points, idx)
	if leaf.mbr.IsEmpty() {
		copy(leaf.mbr.Min, p)
		copy(leaf.mbr.Max, p)
	} else {
		leaf.mbr.ExtendPoint(p)
	}
	t.size++
	t.handleOverflow(leaf)
	// Propagate MBR growth to the root.
	for n := leaf.parent; n != nil; n = n.parent {
		n.mbr.ExtendPoint(p)
	}
}

// chooseLeaf descends from n to the leaf best suited for p using the
// R*-tree criterion: minimal overlap enlargement at the level above
// leaves, minimal area enlargement elsewhere; ties by area then by
// child order (determinism). Each child's box grown by p is built in
// the tree's scratch, so scoring a candidate allocates nothing.
//
//hos:hotpath
func (t *Tree) chooseLeaf(n *node, p []float64) *node {
	d := len(p)
	if cap(t.sc.grownLo) < d {
		t.sc.grownLo, t.sc.grownHi = make([]float64, d), make([]float64, d)
	}
	lo, hi := t.sc.grownLo[:d], t.sc.grownHi[:d]
	for !n.leaf {
		childrenAreLeaves := n.children[0].leaf
		best := -1
		bestOverlapInc := math.Inf(1)
		bestAreaInc := math.Inf(1)
		bestArea := math.Inf(1)
		for i, c := range n.children {
			// The grown box is c's MBR extended by p, compared the
			// way ExtendPoint compares.
			inside := true
			for j, v := range p {
				l, h := c.mbr.Min[j], c.mbr.Max[j]
				if v < l {
					l, inside = v, false
				}
				if v > h {
					h, inside = v, false
				}
				lo[j], hi[j] = l, h
			}
			area := c.mbr.Area()
			areaInc := boxArea(lo, hi) - area
			overlapInc := 0.0
			// The sum skips only terms that are exactly +0, and stops
			// only once it can no longer win, so every decision is the
			// full sum's (DESIGN §10.4). With p inside c the grown box
			// is c and every term is x - x; a finite area bounds every
			// x, so all of them are +0.
			if childrenAreLeaves && !(inside && area <= math.MaxFloat64) {
				for j, o := range n.children {
					if j == i {
						continue
					}
					g := boxOverlap(lo, hi, o.mbr.Min, o.mbr.Max)
					if g == 0 {
						continue // c lies in the grown box: c ∩ o is empty too
					}
					overlapInc += g - boxOverlap(c.mbr.Min, c.mbr.Max, o.mbr.Min, o.mbr.Max)
					if overlapInc > bestOverlapInc {
						break // no term is negative: the sum cannot come back
					}
				}
			}
			if better(overlapInc, areaInc, area, bestOverlapInc, bestAreaInc, bestArea) {
				best, bestOverlapInc, bestAreaInc, bestArea = i, overlapInc, areaInc, area
			}
		}
		if best < 0 {
			// Every score was +Inf or NaN (volumes beyond the float64
			// range): no child wins, so take the first.
			best = 0
		}
		n = n.children[best]
	}
	return n
}

func better(ov, ai, a, bestOv, bestAi, bestA float64) bool {
	if ov != bestOv {
		return ov < bestOv
	}
	if ai != bestAi {
		return ai < bestAi
	}
	return a < bestA
}

// handleOverflow splits n if it exceeds capacity (unless it is a
// supernode, which simply grows), propagating splits upward.
func (t *Tree) handleOverflow(n *node) {
	for n != nil && n.entryCount() > t.cfg.MaxEntries {
		if n.super {
			return // supernodes absorb overflow
		}
		left, right, splitDim, ok := t.splitNode(n)
		if !ok {
			// No acceptable split: convert to supernode.
			n.super = true
			t.supernodes++
			return
		}
		// Adopt grandchildren only now that the split is accepted;
		// candidate splits must not mutate the live tree.
		for _, c := range left.children {
			c.parent = left
		}
		for _, c := range right.children {
			c.parent = right
		}
		parent := n.parent
		if parent == nil {
			// Root split: the tree grows one level.
			newRoot := &node{
				leaf:         false,
				children:     []*node{left, right},
				splitHistory: subspace.New(splitDim),
			}
			left.parent, right.parent = newRoot, newRoot
			newRoot.recomputeMBR(t.ds.Dim(), t.pointOf)
			t.root = newRoot
			return
		}
		// Replace n by left and right in the parent.
		for i, c := range parent.children {
			if c == n {
				parent.children[i] = left
				break
			}
		}
		parent.children = append(parent.children, right)
		left.parent, right.parent = parent, parent
		parent.splitHistory = parent.splitHistory.With(splitDim)
		parent.recomputeMBR(t.ds.Dim(), t.pointOf)
		n = parent
	}
}

// splitNode splits an overfull node into two. It returns ok=false when
// the X-tree policy rejects every candidate split (directory nodes
// only), in which case the caller creates a supernode.
func (t *Tree) splitNode(n *node) (left, right *node, splitDim int, ok bool) {
	if n.leaf {
		l, r, dim := t.topologicalSplitLeaf(n)
		return l, r, dim, true
	}
	// Directory node: try the topological (R*) split first.
	l, r, dim := t.topologicalSplitDir(n)
	if overlapFraction(l.mbr.Min, l.mbr.Max, r.mbr.Min, r.mbr.Max) <= t.cfg.MaxOverlapFraction {
		return l, r, dim, true
	}
	// Overlap too high: try the overlap-minimal split along a split-
	// history dimension.
	if l2, r2, dim2, found := t.overlapMinimalSplit(n); found {
		return l2, r2, dim2, true
	}
	return nil, nil, 0, false
}

// overlapFraction measures split quality: intersection volume over
// union volume. Degenerate (zero-volume) unions fall back to a margin
// ratio so flat MBRs still compare meaningfully.
func overlapFraction(aLo, aHi, bLo, bHi []float64) float64 {
	uv := 1.0
	for i := range aLo {
		l, h := unionExtent(aLo[i], aHi[i], bLo[i], bHi[i])
		uv *= h - l
	}
	if uv > 0 {
		return boxOverlap(aLo, aHi, bLo, bHi) / uv
	}
	// Degenerate: compare overlap of margins instead.
	var um float64
	for i := range aLo {
		l, h := unionExtent(aLo[i], aHi[i], bLo[i], bHi[i])
		um += h - l
	}
	if um == 0 {
		return 0
	}
	var inter float64
	for i := range aLo {
		lo := max(aLo[i], bLo[i])
		hi := min(aHi[i], bHi[i])
		if hi > lo {
			inter += hi - lo
		}
	}
	return inter / um
}

// unionExtent is one dimension of the union of boxes a and b, compared
// the way Extend compares: a's bound unless b's lies strictly outside.
func unionExtent(aLo, aHi, bLo, bHi float64) (lo, hi float64) {
	lo, hi = aLo, aHi
	if bLo < lo {
		lo = bLo
	}
	if bHi > hi {
		hi = bHi
	}
	return lo, hi
}

// topologicalSplitLeaf performs the R*-tree split on a leaf's points:
// choose the axis with minimal total margin over all legal
// distributions, then the distribution with minimal overlap (ties:
// minimal total area). One sweep per axis bounds every distribution's
// two halves.
func (t *Tree) topologicalSplitLeaf(n *node) (left, right *node, splitDim int) {
	d := t.ds.Dim()
	minFill := t.cfg.minFill()
	total := len(n.points)
	orders := t.sc.rowOrders(d * total)
	sw := &t.sc.sweep

	bestAxis := -1
	bestMargin := math.Inf(1)
	for axis := 0; axis < d; axis++ {
		order := orders[axis*total : (axis+1)*total]
		copy(order, n.points)
		slices.SortFunc(order, func(a, b int) int {
			va, vb := t.pointOf(a)[axis], t.pointOf(b)[axis]
			if va != vb {
				if va < vb {
					return -1
				}
				return 1
			}
			return cmp.Compare(a, b)
		})
		t.sweepRows(order, minFill)
		if marginSum := sw.marginSum(minFill); marginSum < bestMargin {
			bestMargin = marginSum
			bestAxis = axis
		}
	}
	if bestAxis < 0 {
		bestAxis = 0 // every margin sum was +Inf or NaN
	}

	order := orders[bestAxis*total : (bestAxis+1)*total]
	if bestAxis != d-1 {
		t.sweepRows(order, minFill)
	}
	bestSplit := sw.bestSplit(minFill)

	left = &node{leaf: true, points: append([]int(nil), order[:bestSplit]...), splitHistory: n.splitHistory.With(bestAxis)}
	right = &node{leaf: true, points: append([]int(nil), order[bestSplit:]...), splitHistory: n.splitHistory.With(bestAxis)}
	left.recomputeMBR(d, t.pointOf)
	right.recomputeMBR(d, t.pointOf)
	return left, right, bestAxis
}

// topologicalSplitDir performs the R*-tree split on a directory
// node's children, sorting by MBR low then high value per axis.
func (t *Tree) topologicalSplitDir(n *node) (left, right *node, splitDim int) {
	d := t.ds.Dim()
	minFill := t.cfg.minFill()
	total := len(n.children)
	orders := t.sc.kidOrders(d * total)
	sw := &t.sc.sweep

	bestAxis := -1
	bestMargin := math.Inf(1)
	for axis := 0; axis < d; axis++ {
		order := orders[axis*total : (axis+1)*total]
		copy(order, n.children)
		sortKids(order, axis)
		t.sweepKids(order, minFill)
		if marginSum := sw.marginSum(minFill); marginSum < bestMargin {
			bestMargin = marginSum
			bestAxis = axis
		}
	}
	if bestAxis < 0 {
		bestAxis = 0 // every margin sum was +Inf or NaN
	}

	keptOrder := orders[bestAxis*total : (bestAxis+1)*total]
	if bestAxis != d-1 {
		t.sweepKids(keptOrder, minFill)
	}
	return t.makeDirPair(n, keptOrder, sw.bestSplit(minFill), bestAxis)
}

// overlapMinimalSplit attempts the X-tree split that uses the split
// history: only dimensions along which every child has already been
// split can partition the children with little or no overlap. It
// returns found=false when no candidate dimension yields an
// acceptably balanced split with overlap under the threshold.
func (t *Tree) overlapMinimalSplit(n *node) (left, right *node, splitDim int, found bool) {
	d := t.ds.Dim()
	// Candidate dims: intersection of all children's split histories,
	// plus the node's own recorded split dims.
	candidates := subspace.Full(d)
	for _, c := range n.children {
		candidates = candidates.Intersect(c.splitHistory)
	}
	candidates = candidates.Union(n.splitHistory)
	if candidates.IsEmpty() {
		return nil, nil, 0, false
	}

	minFanout := t.cfg.minFill()
	total := len(n.children)
	orders := t.sc.kidOrders(d * total)
	sw := &t.sc.sweep
	bestOverlap := math.Inf(1)
	bestDim, bestSplit := -1, -1

	candidates.EachDim(func(dim int) {
		order := orders[dim*total : (dim+1)*total]
		copy(order, n.children)
		sortKids(order, dim)
		t.sweepKids(order, minFanout)
		for split := minFanout; split <= total-minFanout; split++ {
			ov := overlapFraction(sw.halves(split))
			if ov < bestOverlap {
				bestOverlap, bestDim, bestSplit = ov, dim, split
			}
		}
	})

	if bestDim < 0 || bestOverlap > t.cfg.MaxOverlapFraction {
		return nil, nil, 0, false
	}
	l, r, dim := t.makeDirPair(n, orders[bestDim*total:(bestDim+1)*total], bestSplit, bestDim)
	return l, r, dim, true
}

// sortKids orders children by their MBR's low bound along axis, then
// by the high bound, keeping the given order among ties.
func sortKids(order []*node, axis int) {
	slices.SortStableFunc(order, func(a, b *node) int {
		if a.mbr.Min[axis] != b.mbr.Min[axis] {
			if a.mbr.Min[axis] < b.mbr.Min[axis] {
				return -1
			}
			return 1
		}
		if a.mbr.Max[axis] < b.mbr.Max[axis] {
			return -1
		}
		if a.mbr.Max[axis] > b.mbr.Max[axis] {
			return 1
		}
		return 0
	})
}

// makeDirPair materialises the two directory nodes of a split.
func (t *Tree) makeDirPair(n *node, order []*node, split, axis int) (left, right *node, splitDim int) {
	d := t.ds.Dim()
	left = &node{
		leaf:         false,
		children:     append([]*node(nil), order[:split]...),
		splitHistory: n.splitHistory.With(axis),
	}
	right = &node{
		leaf:         false,
		children:     append([]*node(nil), order[split:]...),
		splitHistory: n.splitHistory.With(axis),
	}
	left.recomputeMBR(d, t.pointOf)
	right.recomputeMBR(d, t.pointOf)
	return left, right, axis
}

// buildScratch is the workspace construction reuses from one insertion
// to the next: chooseLeaf's grown box, a split's entries sorted along
// every axis, and the sweep of one such order. It grows to the largest
// node split so far and is dropped once the tree is packed.
type buildScratch struct {
	grownLo, grownHi []float64
	rows             []int   // leaf split orders, axis-major
	kids             []*node // directory split orders, axis-major
	sweep            sweep
}

func (sc *buildScratch) rowOrders(n int) []int {
	if cap(sc.rows) < n {
		sc.rows = make([]int, n)
	}
	return sc.rows[:n]
}

func (sc *buildScratch) kidOrders(n int) []*node {
	if cap(sc.kids) < n {
		sc.kids = make([]*node, n)
	}
	return sc.kids[:n]
}

// sweep holds the bounds of every prefix and every suffix of one
// sorted order of n entries: prefix k covers entries [0, k) and
// suffix k covers [k, n), both at rows [k*d, (k+1)*d) of their
// slabs. Distribution k of a split is prefix k against suffix k, so
// one forward and one backward pass bound all of an axis's
// distributions in O(n·d); extending each from scratch took O(n²·d).
//
// The bounds are bit for bit those Extend builds entry by entry from
// EmptyMBR in order. The forward pass makes Extend's strict
// comparisons in Extend's order. The backward pass meets the entries
// in reverse, so it compares non-strictly: among bounds of equal value
// the entry earliest in the order then wins, as it does going forward.
// Equal values differ in their bits only as +0 and -0.
type sweep struct {
	n, d                       int
	preLo, preHi, sufLo, sufHi []float64
}

// reset sizes the sweep for n entries and sets the empty prefix 0 and
// the empty suffix n.
func (s *sweep) reset(n, d int) {
	need := (n + 1) * d
	if cap(s.preLo) < need {
		s.preLo, s.preHi = make([]float64, need), make([]float64, need)
		s.sufLo, s.sufHi = make([]float64, need), make([]float64, need)
	}
	s.n, s.d = n, d
	s.preLo, s.preHi = s.preLo[:need], s.preHi[:need]
	s.sufLo, s.sufHi = s.sufLo[:need], s.sufHi[:need]
	for j := 0; j < d; j++ {
		s.preLo[j], s.preHi[j] = math.Inf(1), math.Inf(-1)
		s.sufLo[n*d+j], s.sufHi[n*d+j] = math.Inf(1), math.Inf(-1)
	}
}

// forward sets prefix k+1 to prefix k extended by entry k's bounds.
func (s *sweep) forward(k int, lo, hi []float64) {
	d := s.d
	pLo, pHi := s.preLo[k*d:(k+1)*d], s.preHi[k*d:(k+1)*d]
	nLo, nHi := s.preLo[(k+1)*d:(k+2)*d], s.preHi[(k+1)*d:(k+2)*d]
	for j := range nLo {
		l, h := pLo[j], pHi[j]
		if lo[j] < l {
			l = lo[j]
		}
		if hi[j] > h {
			h = hi[j]
		}
		nLo[j], nHi[j] = l, h
	}
}

// backward sets suffix k to suffix k+1 extended by entry k's bounds.
func (s *sweep) backward(k int, lo, hi []float64) {
	d := s.d
	pLo, pHi := s.sufLo[(k+1)*d:(k+2)*d], s.sufHi[(k+1)*d:(k+2)*d]
	nLo, nHi := s.sufLo[k*d:(k+1)*d], s.sufHi[k*d:(k+1)*d]
	for j := range nLo {
		l, h := pLo[j], pHi[j]
		if lo[j] <= l {
			l = lo[j]
		}
		if hi[j] >= h {
			h = hi[j]
		}
		nLo[j], nHi[j] = l, h
	}
}

// halves returns the bounds of distribution k: prefix k, then suffix k.
func (s *sweep) halves(k int) (lLo, lHi, rLo, rHi []float64) {
	r := k * s.d
	return s.preLo[r : r+s.d], s.preHi[r : r+s.d], s.sufLo[r : r+s.d], s.sufHi[r : r+s.d]
}

// marginSum is the R*-tree score of the swept axis: the margins of
// both halves of every distribution minFill..n-minFill, summed in
// order.
func (s *sweep) marginSum(minFill int) float64 {
	var sum float64
	for k := minFill; k <= s.n-minFill; k++ {
		lLo, lHi, rLo, rHi := s.halves(k)
		sum += boxMargin(lLo, lHi) + boxMargin(rLo, rHi)
	}
	return sum
}

// bestSplit returns the distribution minFill..n-minFill whose halves
// overlap least, ties by least total area, then the first; minFill
// when every score is +Inf or NaN.
func (s *sweep) bestSplit(minFill int) int {
	best := -1
	bestOverlap, bestArea := math.Inf(1), math.Inf(1)
	for k := minFill; k <= s.n-minFill; k++ {
		lLo, lHi, rLo, rHi := s.halves(k)
		ov := boxOverlap(lLo, lHi, rLo, rHi)
		area := boxArea(lLo, lHi) + boxArea(rLo, rHi)
		if ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
			bestOverlap, bestArea, best = ov, area, k
		}
	}
	if best < 0 {
		best = minFill
	}
	return best
}

// sweepRows sweeps the dataset points listed in order, as far as
// distributions minFill..len(order)-minFill need.
func (t *Tree) sweepRows(order []int, minFill int) {
	sw := &t.sc.sweep
	n := len(order)
	sw.reset(n, t.ds.Dim())
	for k := 0; k < n-minFill; k++ {
		p := t.pointOf(order[k])
		sw.forward(k, p, p)
	}
	for k := n - 1; k >= minFill; k-- {
		p := t.pointOf(order[k])
		sw.backward(k, p, p)
	}
}

// sweepKids sweeps the MBRs of the children listed in order, as far
// as distributions minFill..len(order)-minFill need.
func (t *Tree) sweepKids(order []*node, minFill int) {
	sw := &t.sc.sweep
	n := len(order)
	sw.reset(n, t.ds.Dim())
	for k := 0; k < n-minFill; k++ {
		sw.forward(k, order[k].mbr.Min, order[k].mbr.Max)
	}
	for k := n - 1; k >= minFill; k-- {
		sw.backward(k, order[k].mbr.Min, order[k].mbr.Max)
	}
}
