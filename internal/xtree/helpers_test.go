package xtree

// height returns the tree's height (a single leaf root has height 1).
// All leaves share one depth, so following first children from the
// root measures it.
func height(t *Tree) int {
	h := 1
	for id := int32(0); !t.ar.nodes[id].isLeaf(); id = t.ar.kids(id)[0] {
		h++
	}
	return h
}
