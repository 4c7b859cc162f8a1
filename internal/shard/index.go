package shard

import (
	"bytes"
	"fmt"

	"repro/internal/knn"
	"repro/internal/vector"
	"repro/internal/xtree"
)

// IndexKind selects a k-NN index: the X-tree of the paper's indexing
// module, a linear scan, or a size-based choice between the two. It is
// the one backend enum of the repository — core.Backend aliases it —
// and its numeric values are the snapshot's byte encoding.
type IndexKind uint8

const (
	// IndexAuto builds an X-tree over datasets of at least
	// AutoXTreeThreshold rows and scans smaller ones linearly.
	IndexAuto IndexKind = iota
	// IndexLinear always scans.
	IndexLinear
	// IndexXTree always builds an X-tree.
	IndexXTree
)

// AutoXTreeThreshold is the row count at which IndexAuto switches from
// a linear scan to an X-tree. It applies to whatever dataset the index
// covers: the whole dataset of an unsharded miner, one shard's rows
// under sharding.
const AutoXTreeThreshold = 512

// String names the kind with the spelling core.ParseBackend accepts.
func (k IndexKind) String() string {
	switch k {
	case IndexAuto:
		return "auto"
	case IndexLinear:
		return "linear"
	case IndexXTree:
		return "xtree"
	default:
		return fmt.Sprintf("IndexKind(%d)", uint8(k))
	}
}

// useTree reports whether k indexes an n-row dataset with an X-tree.
func (k IndexKind) useTree(n int) bool {
	return k == IndexXTree || (k == IndexAuto && n >= AutoXTreeThreshold)
}

// Index is one k-NN index over one dataset: an X-tree when its kind
// calls for one at the dataset's size, a linear scan otherwise. It is
// the only place that decides between the two, and the only place
// that builds, decodes, extends and encodes the tree; shard partitions
// and the unsharded core.Miner both hold one. An Index is immutable
// and safe for concurrent readers; each goroutine searches through its
// own cursor from NewSearcher.
type Index struct {
	ds     *vector.Dataset
	metric vector.Metric
	kind   IndexKind
	tree   *xtree.Tree // nil: linear scan
}

// indexShell validates the index parameters and returns the index
// without a tree.
func indexShell(ds *vector.Dataset, metric vector.Metric, kind IndexKind) (*Index, error) {
	switch {
	case ds == nil:
		return nil, fmt.Errorf("shard: index: nil dataset")
	case !metric.Valid():
		return nil, fmt.Errorf("shard: index: invalid metric %v", metric)
	case kind > IndexXTree:
		return nil, fmt.Errorf("shard: invalid index kind %v", kind)
	}
	return &Index{ds: ds, metric: metric, kind: kind}, nil
}

// NewIndex builds the index kind calls for over ds.
func NewIndex(ds *vector.Dataset, metric vector.Metric, kind IndexKind) (*Index, error) {
	x, err := indexShell(ds, metric, kind)
	if err != nil || !kind.useTree(ds.N()) {
		return x, err
	}
	if x.tree, err = xtree.Build(ds, metric, xtree.DefaultConfig()); err != nil {
		return nil, err
	}
	return x, nil
}

// DecodeIndex is NewIndex warm-started from Encode's bytes: a tree is
// decoded against ds and validated instead of built. encoded must
// match what kind builds at ds's size — tree bytes exactly when a tree
// is due, nil for a linear scan — because bytes for an index the
// configuration does not use, or a missing tree for one it does, mean
// the snapshot was taken under a different configuration. A decoded
// tree whose metric disagrees with metric fails too.
func DecodeIndex(ds *vector.Dataset, metric vector.Metric, kind IndexKind, encoded []byte) (*Index, error) {
	x, err := indexShell(ds, metric, kind)
	if err != nil {
		return nil, err
	}
	useTree := kind.useTree(ds.N())
	if useTree != (len(encoded) > 0) {
		return nil, fmt.Errorf("shard: encoded index shape mismatch (tree expected: %v)", useTree)
	}
	if !useTree {
		return x, nil
	}
	if x.tree, err = xtree.Decode(bytes.NewReader(encoded), ds); err != nil {
		return nil, err
	}
	if x.tree.Metric() != metric {
		return nil, fmt.Errorf("shard: encoded tree metric %v, index uses %v", x.tree.Metric(), metric)
	}
	return x, nil
}

// Append returns the index over newDS, which must extend the indexed
// dataset (same dimensionality, leading rows byte-identical). A tree
// continues its insertion sequence through xtree.Tree.Append; a linear
// scan has nothing to extend, and one that reaches AutoXTreeThreshold
// gets its first tree. Either way the result equals NewIndex over
// newDS, encoded bytes included. x is unchanged and stays valid for
// in-flight searchers.
func (x *Index) Append(newDS *vector.Dataset) (*Index, error) {
	if x.tree == nil {
		return NewIndex(newDS, x.metric, x.kind)
	}
	t, err := x.tree.Append(newDS)
	if err != nil {
		return nil, err
	}
	return &Index{ds: newDS, metric: x.metric, kind: x.kind, tree: t}, nil
}

// Encode serializes the tree for snapshotting: the xtree.Encode bytes,
// or nil for a linear scan, which has nothing to persist. DecodeIndex
// accepts the result, given the same dataset, metric and kind.
func (x *Index) Encode() ([]byte, error) {
	if x.tree == nil {
		return nil, nil
	}
	var buf bytes.Buffer
	if err := x.tree.Encode(&buf); err != nil {
		return nil, fmt.Errorf("encoding index: %w", err)
	}
	return buf.Bytes(), nil
}

// NewSearcher returns a k-NN cursor over the index for use by one
// goroutine at a time. The index itself is shared; only the cursor,
// its scratch and its work counters are per-searcher.
func (x *Index) NewSearcher() (knn.Searcher, error) {
	if x.tree != nil {
		return xtree.NewSearcher(x.tree), nil
	}
	return knn.NewLinear(x.ds, x.metric)
}
