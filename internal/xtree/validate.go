package xtree

import (
	"fmt"
	"math"
)

// Validate checks the structural invariants of the packed tree and
// returns the first violation found, or nil. It is exercised heavily
// by tests and usable as a debugging aid:
//
//   - every point index appears exactly once across all leaves;
//   - every node's MBR is exactly the tight bound of its entries;
//   - all leaves sit at the same depth;
//   - node capacity is respected except for supernodes.
func (t *Tree) Validate() error {
	seen := make([]int32, t.size) // times each point index occurs
	leafDepth := -1
	a := &t.ar
	d := t.ds.Dim()
	want := EmptyMBR(d)
	var walk func(id int32, depth int, isRoot bool) error
	walk = func(id int32, depth int, isRoot bool) error {
		n := &a.nodes[id]
		// Capacity.
		if n.entryCount() > t.cfg.MaxEntries && !n.isSuper() {
			return fmt.Errorf("node at depth %d has %d entries > capacity %d and is not a supernode",
				depth, n.entryCount(), t.cfg.MaxEntries)
		}
		if !isRoot && n.entryCount() == 0 {
			return fmt.Errorf("empty non-root node at depth %d", depth)
		}
		// MBR tightness.
		for i := range want.Min {
			want.Min[i], want.Max[i] = math.Inf(1), math.Inf(-1)
		}
		if n.isLeaf() {
			for _, idx := range a.rows(id) {
				if idx < 0 || int(idx) >= t.size {
					return fmt.Errorf("point index %d out of range [0,%d)", idx, t.size)
				}
				seen[idx]++
				want.ExtendPoint(t.pointOf(int(idx)))
			}
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("leaf depth mismatch: %d vs %d", leafDepth, depth)
			}
		} else {
			if n.pointCount != 0 {
				return fmt.Errorf("directory node holds points")
			}
			for _, c := range a.kids(id) {
				want.Extend(a.nodeMBR(c))
			}
		}
		if t.size > 0 && n.entryCount() > 0 {
			have := a.nodeMBR(id)
			for i := range want.Min {
				if !almostEq(want.Min[i], have.Min[i]) || !almostEq(want.Max[i], have.Max[i]) {
					return fmt.Errorf("loose MBR at depth %d dim %d: have [%v,%v], want [%v,%v]",
						depth, i, have.Min[i], have.Max[i], want.Min[i], want.Max[i])
				}
			}
		}
		for _, c := range a.kids(id) {
			if err := walk(c, depth+1, false); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0, 0, true); err != nil {
		return err
	}
	for idx, count := range seen {
		if count != 1 {
			return fmt.Errorf("point %d appears %d times", idx, count)
		}
	}
	return nil
}

func almostEq(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}
