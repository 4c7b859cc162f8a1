package xtree

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/binfmt"
	"repro/internal/subspace"
	"repro/internal/vector"
)

// This file is the on-disk codec of a built X-tree: Encode flattens
// the node structure (shape, point indices, split histories, supernode
// flags) and Decode rebuilds an identical tree over the same dataset,
// so a serving process can warm-start without paying the insertion
// cost of Build. Coordinates and MBRs are deliberately NOT stored:
// points live in the dataset the caller supplies to Decode, and every
// MBR in a valid tree is exactly the min/max bound of its entries —
// recomputing them bottom-up from the same float64 values reproduces
// the same bytes, and keeps the format free of redundant data that
// could disagree with itself.
//
// Decode trusts nothing: every read is bounds-checked, structural
// budgets cap allocation before it happens, and the rebuilt tree must
// pass the full Validate() sweep before it is returned. Corrupt or
// truncated input yields an error wrapping ErrDecode, never a panic.

// codecMagic identifies an encoded X-tree stream; codecVersion guards
// the structure layout.
const (
	codecMagic   uint32 = 0x58545231 // "XTR1"
	codecVersion uint32 = 1
)

// ErrDecode is wrapped by every Decode failure, whatever the cause
// (bad magic, truncation, structural corruption, validation failure),
// so callers can classify "this is not a usable tree" with errors.Is.
var ErrDecode = errors.New("xtree: invalid encoded tree")

// maxDecodeDepth bounds recursion while decoding: a valid X-tree over
// a bounded dataset is far shallower, and unbounded nesting in a
// hostile stream must not exhaust the stack.
const maxDecodeDepth = 512

// Encode writes the tree in the binary codec format. The dataset
// itself is not written; Decode must be given the same dataset (same
// point order and values) to rebuild an equivalent tree.
func (t *Tree) Encode(w io.Writer) error {
	var e binfmt.Encoder
	e.U32(codecMagic)
	e.U32(codecVersion)
	e.U32(uint32(t.cfg.MaxEntries))
	e.F64(t.cfg.MinFillFraction)
	e.F64(t.cfg.MaxOverlapFraction)
	e.U8(uint8(t.metric))
	e.U32(uint32(t.size))
	e.U32(uint32(t.supernodes))
	encodeNode(&e, &t.ar, 0)
	_, err := w.Write(e.Bytes())
	return err
}

// Decode reads a tree previously written by Encode, binds it to ds,
// recomputes all MBRs and validates the result. The stream must end
// where the tree does. The metric the tree was built with is restored
// from the stream; callers that require a particular metric should
// check Metric() afterwards.
func Decode(r io.Reader, ds *vector.Dataset) (*Tree, error) {
	if ds == nil {
		return nil, fmt.Errorf("%w: nil dataset", ErrDecode)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	d := binfmt.NewDecoder(data, ErrDecode)
	if magic := d.U32(); d.Err() == nil && magic != codecMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrDecode, magic)
	}
	if version := d.U32(); d.Err() == nil && version != codecVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrDecode, version)
	}
	cfg := Config{
		MaxEntries:         int(d.U32()),
		MinFillFraction:    d.F64(),
		MaxOverlapFraction: d.F64(),
	}
	metric := vector.Metric(d.U8())
	size := int(d.U32())
	supernodes := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := cfg.normalize(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	if !metric.Valid() {
		return nil, fmt.Errorf("%w: invalid metric %d", ErrDecode, uint8(metric))
	}
	if size != ds.N() {
		return nil, fmt.Errorf("%w: tree indexes %d points, dataset has %d", ErrDecode, size, ds.N())
	}
	// Budgets: a tree over n points has at most n leaf entries, and
	// its node count is bounded by the entry count (every non-root
	// node holds ≥ 1 entry). The +8 keeps tiny/empty trees legal.
	nd := &nodeDecoder{Decoder: d, full: subspace.Full(ds.Dim()), pointBudget: size, maxIndex: size, nodeBudget: 2*size + 8}
	root := nd.node(0)
	if d.Remaining() != 0 {
		d.Failf("%d trailing bytes", d.Remaining())
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	t := &Tree{ds: ds, metric: metric, cfg: cfg, size: size, supernodes: supernodes}
	t.pack(root)
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	return t, nil
}

// Metric returns the distance metric the tree was built with.
func (t *Tree) Metric() vector.Metric { return t.metric }

// Config returns the construction parameters of the tree.
func (t *Tree) Config() Config { return t.cfg }

// node flags in the encoded stream.
const (
	flagLeaf  = 1 << 0
	flagSuper = 1 << 1
)

// encodeNode writes arena node id and its subtree. Arena order is DFS
// preorder, exactly the recursion order here, so the stream is
// byte-for-byte the one the original pointer walk produced.
func encodeNode(e *binfmt.Encoder, a *arena, id int32) {
	n := &a.nodes[id]
	var flags uint8
	if n.isLeaf() {
		flags |= flagLeaf
	}
	if n.isSuper() {
		flags |= flagSuper
	}
	e.U8(flags)
	e.U32(uint32(n.history))
	if n.isLeaf() {
		e.U32(uint32(n.pointCount))
		for _, idx := range a.rows(id) {
			e.U32(uint32(idx))
		}
		return
	}
	e.U32(uint32(n.childCount))
	for _, c := range a.kids(id) {
		encodeNode(e, a, c)
	}
}

// nodeDecoder reads the node records back under structural budgets
// that cap allocation and recursion before they happen.
type nodeDecoder struct {
	*binfmt.Decoder
	full        subspace.Mask
	pointBudget int
	maxIndex    int
	nodeBudget  int
}

// nodeHeader is the smallest node record: flags(1) + history(4) +
// count(4).
const nodeHeader = 1 + 4 + 4

// node decodes one node and its subtree; it returns nil once the
// decoder has failed.
func (d *nodeDecoder) node(depth int) *node {
	if depth > maxDecodeDepth {
		d.Failf("nesting deeper than %d", maxDecodeDepth)
		return nil
	}
	if d.nodeBudget--; d.nodeBudget < 0 {
		d.Failf("more nodes than the dataset can populate")
		return nil
	}
	flags := d.U8()
	history := subspace.Mask(d.U32())
	if flags&^(flagLeaf|flagSuper) != 0 {
		d.Failf("unknown node flags %#x", flags)
	}
	if !history.SubsetOf(d.full) {
		d.Failf("split history %v outside dimensionality", history)
	}
	n := &node{leaf: flags&flagLeaf != 0, super: flags&flagSuper != 0, splitHistory: history}
	if n.leaf {
		count := d.Count(4)
		if count > d.pointBudget {
			d.Failf("leaf claims %d points, only %d remain", count, d.pointBudget)
		}
		if d.Err() != nil {
			return nil
		}
		d.pointBudget -= count
		n.points = make([]int, count)
		for i := range n.points {
			// Guard before anything dereferences the dataset: an
			// out-of-range index would panic in recomputeMBR.
			if n.points[i] = int(d.U32()); n.points[i] >= d.maxIndex {
				d.Failf("point index %d out of range [0,%d)", n.points[i], d.maxIndex)
				return nil
			}
		}
		return n
	}
	count := d.Count(nodeHeader)
	if count > d.nodeBudget {
		d.Failf("directory claims %d children, budget %d", count, d.nodeBudget)
	}
	if d.Err() != nil {
		return nil
	}
	n.children = make([]*node, count)
	for i := range n.children {
		if n.children[i] = d.node(depth + 1); n.children[i] == nil {
			return nil
		}
	}
	return n
}
