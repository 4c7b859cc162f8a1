package xtree

import (
	"fmt"

	"repro/internal/vector"
)

// appendRebuildFactor is the repack/rebuild trigger for Append: when a
// batch at least doubles the indexed row count, continuing the old
// insertion sequence costs as much as starting over, so Append builds
// from scratch instead of unpacking. Both paths produce byte-identical
// trees (Append's contract), so the trigger is purely a cost policy.
const appendRebuildFactor = 2.0

// Append returns a new Tree over newDS that indexes every row of
// newDS, sharing nothing mutable with t (t remains valid and
// unchanged — in-flight searches against it are unaffected).
//
// newDS must extend the dataset t was built over: same dimensionality,
// and rows [0, t.Size()) byte-identical to the indexed rows. The new
// rows [t.Size(), newDS.N()) are inserted by continuing t's insertion
// sequence: the packed arena is unpacked into the linked scaffolding
// Build uses, the rows are inserted, and the result is repacked. The
// insertion algorithm is deterministic in (prefix rows, insertion
// order), so the appended tree is byte-identical — arena layout, split
// history, supernode set, encoded stream — to Build over all of newDS.
// Large batches (≥ appendRebuildFactor × current size) take the
// from-scratch path directly; the result is the same.
func (t *Tree) Append(newDS *vector.Dataset) (*Tree, error) {
	if newDS == nil {
		return nil, fmt.Errorf("xtree: append: nil dataset")
	}
	if newDS.Dim() != t.ds.Dim() {
		return nil, fmt.Errorf("xtree: append: dim %d != indexed dim %d", newDS.Dim(), t.ds.Dim())
	}
	if newDS.N() < t.size {
		return nil, fmt.Errorf("xtree: append: dataset has %d rows, tree indexes %d", newDS.N(), t.size)
	}
	d := t.ds.Dim()
	oldSlab, newSlab := t.ds.Slab(), newDS.Slab()
	for i := 0; i < t.size*d; i++ {
		if oldSlab[i] != newSlab[i] {
			return nil, fmt.Errorf("xtree: append: row %d differs from the indexed dataset", i/d)
		}
	}
	if float64(newDS.N()-t.size) >= appendRebuildFactor*float64(t.size) {
		return Build(newDS, t.metric, t.cfg)
	}
	nt := &Tree{
		ds:         newDS,
		metric:     t.metric,
		cfg:        t.cfg,
		root:       t.unpack(),
		size:       t.size,
		supernodes: t.supernodes,
	}
	for i := t.size; i < newDS.N(); i++ {
		nt.insert(i)
	}
	nt.pack(nt.root)
	nt.root = nil
	if err := nt.Validate(); err != nil {
		return nil, fmt.Errorf("xtree: append: %w", err)
	}
	return nt, nil
}

// unpack reconstructs the linked scaffolding from the packed arena —
// the exact inverse of pack. MBR bounds are copied out of the slabs
// (pack recomputes them with the same pure min/max the incremental
// maintenance uses, so the restored scaffolding is byte-identical to
// the graph that existed just before pack ran).
func (t *Tree) unpack() *node {
	a := &t.ar
	d := a.dim
	var build func(id int32, parent *node) *node
	build = func(id int32, parent *node) *node {
		an := &a.nodes[id]
		n := &node{
			parent:       parent,
			leaf:         an.isLeaf(),
			super:        an.isSuper(),
			splitHistory: an.history,
		}
		base := int(id) * d
		n.mbr = MBR{
			Min: append([]float64(nil), a.mbrMin[base:base+d]...),
			Max: append([]float64(nil), a.mbrMax[base:base+d]...),
		}
		if an.isLeaf() {
			n.points = make([]int, 0, an.pointCount)
			for _, p := range a.rows(id) {
				n.points = append(n.points, int(p))
			}
		} else {
			n.children = make([]*node, 0, an.childCount)
			for _, c := range a.kids(id) {
				n.children = append(n.children, build(c, n))
			}
		}
		return n
	}
	return build(0, nil)
}
