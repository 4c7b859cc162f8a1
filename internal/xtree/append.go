package xtree

import (
	"fmt"

	"repro/internal/vector"
)

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
	nt.root, nt.sc = nil, buildScratch{}
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
//
// The scaffolding is carved out of one slab per kind — nodes, bounds,
// points, child links — so an unpack allocates the same handful of
// times whatever the tree's size. Every node's windows have exact
// capacity: a later append to a leaf's points or a directory's
// children reallocates instead of overwriting its neighbour's.
func (t *Tree) unpack() *node {
	a := &t.ar
	d := a.dim
	nodes := make([]node, len(a.nodes))
	mins := append([]float64(nil), a.mbrMin...)
	maxs := append([]float64(nil), a.mbrMax...)
	points := make([]int, len(a.points))
	kids := make([]*node, len(a.children))
	for id := range a.nodes {
		an := &a.nodes[id]
		n := &nodes[id] // n.parent was set when its parent, earlier in preorder, was visited
		n.leaf, n.super, n.splitHistory = an.isLeaf(), an.isSuper(), an.history
		lo, hi := id*d, (id+1)*d
		n.mbr = MBR{Min: mins[lo:hi:hi], Max: maxs[lo:hi:hi]}
		if an.isLeaf() {
			lo, hi := int(an.pointOff), int(an.pointOff+an.pointCount)
			n.points = points[lo:hi:hi]
			for k, p := range a.rows(int32(id)) {
				n.points[k] = int(p)
			}
		} else {
			lo, hi := int(an.childOff), int(an.childOff+an.childCount)
			n.children = kids[lo:hi:hi]
			for k, c := range a.kids(int32(id)) {
				n.children[k] = &nodes[c]
				nodes[c].parent = n
			}
		}
	}
	return &nodes[0]
}
