package xtree

import (
	"fmt"
	"math"
	"sort"

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

	supernodes int // number of supernode creations
	stats      treeStats
}

type treeStats struct {
	topologicalSplits int64
	overlapFreeSplits int64
	supernodeGrowths  int64
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
	t.root = nil
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
		leaf.mbr = NewMBR(p)
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
// child order (determinism).
func (t *Tree) chooseLeaf(n *node, p []float64) *node {
	for !n.leaf {
		childrenAreLeaves := n.children[0].leaf
		best := -1
		bestOverlapInc := math.Inf(1)
		bestAreaInc := math.Inf(1)
		bestArea := math.Inf(1)
		pr := NewMBR(p)
		for i, c := range n.children {
			areaInc := Enlargement(c.mbr, pr)
			area := c.mbr.Area()
			overlapInc := 0.0
			if childrenAreLeaves {
				grown := Union(c.mbr, pr)
				for j, o := range n.children {
					if j == i {
						continue
					}
					overlapInc += Overlap(grown, o.mbr) - Overlap(c.mbr, o.mbr)
				}
			}
			if better(overlapInc, areaInc, area, bestOverlapInc, bestAreaInc, bestArea) {
				best, bestOverlapInc, bestAreaInc, bestArea = i, overlapInc, areaInc, area
			}
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
			t.stats.supernodeGrowths++
			return // supernodes absorb overflow
		}
		left, right, splitDim, ok := t.splitNode(n)
		if !ok {
			// No acceptable split: convert to supernode.
			n.super = true
			t.supernodes++
			t.stats.supernodeGrowths++
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
		t.stats.topologicalSplits++
		return l, r, dim, true
	}
	// Directory node: try the topological (R*) split first.
	l, r, dim := t.topologicalSplitDir(n)
	if overlapFraction(l.mbr, r.mbr) <= t.cfg.MaxOverlapFraction {
		t.stats.topologicalSplits++
		return l, r, dim, true
	}
	// Overlap too high: try the overlap-minimal split along a split-
	// history dimension.
	if l2, r2, dim2, found := t.overlapMinimalSplit(n); found {
		t.stats.overlapFreeSplits++
		return l2, r2, dim2, true
	}
	return nil, nil, 0, false
}

// overlapFraction measures split quality: intersection volume over
// union volume. Degenerate (zero-volume) unions fall back to a margin
// ratio so flat MBRs still compare meaningfully.
func overlapFraction(a, b MBR) float64 {
	u := Union(a, b)
	uv := u.Area()
	if uv > 0 {
		return Overlap(a, b) / uv
	}
	// Degenerate: compare overlap of margins instead.
	um := u.Margin()
	if um == 0 {
		return 0
	}
	var inter float64
	for i := range a.Min {
		lo := math.Max(a.Min[i], b.Min[i])
		hi := math.Min(a.Max[i], b.Max[i])
		if hi > lo {
			inter += hi - lo
		}
	}
	return inter / um
}

// topologicalSplitLeaf performs the R*-tree split on a leaf's points:
// choose the axis with minimal total margin over all legal
// distributions, then the distribution with minimal overlap (ties:
// minimal total area).
func (t *Tree) topologicalSplitLeaf(n *node) (left, right *node, splitDim int) {
	d := t.ds.Dim()
	minFill := t.cfg.minFill()
	total := len(n.points)

	bestAxis, bestSplit := -1, -1
	bestMargin := math.Inf(1)
	var axisOrder [][]int

	orders := make([][]int, d)
	for axis := 0; axis < d; axis++ {
		order := append([]int(nil), n.points...)
		sort.Slice(order, func(a, b int) bool {
			va, vb := t.pointOf(order[a])[axis], t.pointOf(order[b])[axis]
			if va != vb {
				return va < vb
			}
			return order[a] < order[b]
		})
		orders[axis] = order
		var marginSum float64
		for split := minFill; split <= total-minFill; split++ {
			lm, rm := t.pointsMBR(order[:split]), t.pointsMBR(order[split:])
			marginSum += lm.Margin() + rm.Margin()
		}
		if marginSum < bestMargin {
			bestMargin = marginSum
			bestAxis = axis
		}
	}
	axisOrder = orders

	order := axisOrder[bestAxis]
	bestOverlap, bestArea := math.Inf(1), math.Inf(1)
	for split := minFill; split <= total-minFill; split++ {
		lm, rm := t.pointsMBR(order[:split]), t.pointsMBR(order[split:])
		ov := Overlap(lm, rm)
		area := lm.Area() + rm.Area()
		if ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
			bestOverlap, bestArea, bestSplit = ov, area, split
		}
	}

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

	bestAxis, bestSplit := -1, -1
	bestMargin := math.Inf(1)
	var keptOrder []*node

	for axis := 0; axis < d; axis++ {
		order := append([]*node(nil), n.children...)
		sort.SliceStable(order, func(a, b int) bool {
			if order[a].mbr.Min[axis] != order[b].mbr.Min[axis] {
				return order[a].mbr.Min[axis] < order[b].mbr.Min[axis]
			}
			return order[a].mbr.Max[axis] < order[b].mbr.Max[axis]
		})
		var marginSum float64
		for split := minFill; split <= total-minFill; split++ {
			lm, rm := childrenMBR(order[:split], d), childrenMBR(order[split:], d)
			marginSum += lm.Margin() + rm.Margin()
		}
		if marginSum < bestMargin {
			bestMargin = marginSum
			bestAxis = axis
			keptOrder = order
		}
	}

	bestOverlap, bestArea := math.Inf(1), math.Inf(1)
	for split := minFill; split <= total-minFill; split++ {
		lm, rm := childrenMBR(keptOrder[:split], d), childrenMBR(keptOrder[split:], d)
		ov := Overlap(lm, rm)
		area := lm.Area() + rm.Area()
		if ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
			bestOverlap, bestArea, bestSplit = ov, area, split
		}
	}

	return t.makeDirPair(n, keptOrder, bestSplit, bestAxis)
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
	bestOverlap := math.Inf(1)
	bestDim, bestSplit := -1, -1
	var bestOrder []*node

	candidates.EachDim(func(dim int) {
		order := append([]*node(nil), n.children...)
		sort.SliceStable(order, func(a, b int) bool {
			if order[a].mbr.Min[dim] != order[b].mbr.Min[dim] {
				return order[a].mbr.Min[dim] < order[b].mbr.Min[dim]
			}
			return order[a].mbr.Max[dim] < order[b].mbr.Max[dim]
		})
		for split := minFanout; split <= total-minFanout; split++ {
			lm, rm := childrenMBR(order[:split], d), childrenMBR(order[split:], d)
			ov := overlapFraction(lm, rm)
			if ov < bestOverlap {
				bestOverlap, bestDim, bestSplit = ov, dim, split
				bestOrder = order
			}
		}
	})

	if bestDim < 0 || bestOverlap > t.cfg.MaxOverlapFraction {
		return nil, nil, 0, false
	}
	l, r, dim := t.makeDirPair(n, bestOrder, bestSplit, bestDim)
	return l, r, dim, true
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

func (t *Tree) pointsMBR(idxs []int) MBR {
	m := EmptyMBR(t.ds.Dim())
	for _, i := range idxs {
		m.ExtendPoint(t.pointOf(i))
	}
	return m
}

func childrenMBR(cs []*node, d int) MBR {
	m := EmptyMBR(d)
	for _, c := range cs {
		m.Extend(c.mbr)
	}
	return m
}
