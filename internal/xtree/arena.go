package xtree

import (
	"math"

	"repro/internal/subspace"
)

// This file is the pointer-free resident layout of a built X-tree.
// Build and Decode assemble a temporary pointer graph (splits are far
// easier to express on linked nodes), then pack() flattens it into a
// struct-of-arrays arena and the pointer graph is dropped. Everything
// that runs after construction — search, validation, encoding, the
// structural accessors — walks the arena.
//
// Layout: nodes are stored in DFS preorder (root at index 0, every
// child after its parent), so the encoder's recursive walk over the
// arena emits the same byte stream the pointer walk did. A node's
// children and points are contiguous runs in the shared children /
// points arrays, and its MBR lives at rows [id*d, (id+1)*d) of two
// flat float64 slabs — one cache line of bounds per node for the
// dimensionalities HOS-Miner targets, with no per-node allocations
// and nothing for the garbage collector to trace.

// anodeFlags mirror the codec node flags.
const (
	anodeLeaf  = 1 << 0
	anodeSuper = 1 << 1
)

// anode is one arena node. Children are node IDs (indices into
// arena.nodes), points are dataset row indices; both live in the
// arena's shared backing arrays.
type anode struct {
	childOff   int32
	childCount int32
	pointOff   int32
	pointCount int32
	history    subspace.Mask
	flags      uint8
}

func (n *anode) isLeaf() bool  { return n.flags&anodeLeaf != 0 }
func (n *anode) isSuper() bool { return n.flags&anodeSuper != 0 }

func (n *anode) entryCount() int {
	if n.isLeaf() {
		return int(n.pointCount)
	}
	return int(n.childCount)
}

// arena is the packed tree: all nodes, all child links, all point
// indices and all MBR bounds in six flat slices.
type arena struct {
	nodes    []anode
	children []int32
	points   []int32
	dim      int
	// mbrMin/mbrMax hold node i's bounds at [i*dim, (i+1)*dim).
	mbrMin []float64
	mbrMax []float64
}

// kids returns the child node IDs of node id.
func (a *arena) kids(id int32) []int32 {
	n := &a.nodes[id]
	return a.children[n.childOff : n.childOff+n.childCount]
}

// rows returns the dataset row indices held by leaf id.
func (a *arena) rows(id int32) []int32 {
	n := &a.nodes[id]
	return a.points[n.pointOff : n.pointOff+n.pointCount]
}

// pack flattens the pointer graph rooted at root into t.ar and
// recomputes every MBR bottom-up from the dataset. Extending by points
// is pure min/max — exact and order-independent — so the recomputed
// bounds are byte-identical to the incrementally maintained ones, and
// a decoded tree traverses exactly like the tree that was encoded.
func (t *Tree) pack(root *node) {
	d := t.ds.Dim()
	a := &t.ar
	a.dim = d
	a.nodes = a.nodes[:0]
	a.children = a.children[:0]
	a.points = a.points[:0]

	var ids []int32 // child IDs of the nodes on the current path
	var flatten func(n *node) int32
	flatten = func(n *node) int32 {
		id := int32(len(a.nodes))
		an := anode{history: n.splitHistory}
		if n.leaf {
			an.flags |= anodeLeaf
		}
		if n.super {
			an.flags |= anodeSuper
		}
		an.pointOff = int32(len(a.points))
		for _, p := range n.points {
			a.points = append(a.points, int32(p))
		}
		an.pointCount = int32(len(n.points))
		a.nodes = append(a.nodes, an)
		if !n.leaf {
			// Children pack after the whole subtree of each earlier
			// sibling; collect the IDs first, then write the run.
			base := len(ids)
			for _, c := range n.children {
				cid := flatten(c) // may grow ids: append to it after
				ids = append(ids, cid)
			}
			off := int32(len(a.children))
			a.children = append(a.children, ids[base:]...)
			a.nodes[id].childOff = off
			a.nodes[id].childCount = int32(len(ids) - base)
			ids = ids[:base]
		}
		return id
	}
	flatten(root)

	need := len(a.nodes) * d
	if cap(a.mbrMin) < need {
		a.mbrMin = make([]float64, need)
		a.mbrMax = make([]float64, need)
	}
	a.mbrMin = a.mbrMin[:need]
	a.mbrMax = a.mbrMax[:need]
	slab := t.ds.Slab()
	// Preorder guarantees children have larger IDs than their parent,
	// so one reverse sweep computes all bounds bottom-up.
	for id := len(a.nodes) - 1; id >= 0; id-- {
		base := id * d
		lo := a.mbrMin[base : base+d]
		hi := a.mbrMax[base : base+d]
		for j := 0; j < d; j++ {
			lo[j] = math.Inf(1)
			hi[j] = math.Inf(-1)
		}
		n := &a.nodes[id]
		if n.isLeaf() {
			for _, p := range a.rows(int32(id)) {
				row := slab[int(p)*d : int(p)*d+d]
				for j, v := range row {
					if v < lo[j] {
						lo[j] = v
					}
					if v > hi[j] {
						hi[j] = v
					}
				}
			}
		} else {
			for _, c := range a.kids(int32(id)) {
				cb := int(c) * d
				for j := 0; j < d; j++ {
					if a.mbrMin[cb+j] < lo[j] {
						lo[j] = a.mbrMin[cb+j]
					}
					if a.mbrMax[cb+j] > hi[j] {
						hi[j] = a.mbrMax[cb+j]
					}
				}
			}
		}
	}
}

// nodeMBR materialises node id's bounds as an MBR (testing/validation
// convenience; the hot path reads the slabs directly).
func (a *arena) nodeMBR(id int32) MBR {
	base := int(id) * a.dim
	return MBR{
		Min: a.mbrMin[base : base+a.dim],
		Max: a.mbrMax[base : base+a.dim],
	}
}
