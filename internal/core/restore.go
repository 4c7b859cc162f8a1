package core

import (
	"fmt"

	"repro/internal/shard"
	"repro/internal/subspace"
	"repro/internal/vector"
)

// IndexSnapshot is the serialized k-NN index of a Miner: the encoded
// X-tree bytes a warm restart hands back to NewMinerWithIndex so it
// can skip the index build. Exactly one of the layouts is populated
// for tree-backed configurations; a linear-scan miner has neither
// (there is nothing to persist — the dataset is the index).
type IndexSnapshot struct {
	// Tree is the xtree.Encode form of a single-index miner's tree
	// (nil when the miner scans linearly or is sharded).
	Tree []byte
	// ShardTrees is the per-shard encoded tree set of a sharded miner
	// (nil when unsharded); entry s is nil for linear-scan shards.
	// Present — possibly with every entry nil — whenever the miner is
	// sharded, so the sharded/unsharded distinction survives encoding.
	ShardTrees [][]byte
}

// ExportIndex serializes the miner's k-NN index for snapshotting.
func (m *Miner) ExportIndex() (*IndexSnapshot, error) {
	if m.shards != nil {
		trees, err := m.shards.EncodedTrees()
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		return &IndexSnapshot{ShardTrees: trees}, nil
	}
	tree, err := m.index.Encode()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &IndexSnapshot{Tree: tree}, nil
}

// NewMinerWithIndex validates the configuration and builds the Miner's
// k-NN index, warm-starting it from idx when idx carries encoded trees
// — the snapshot-restore path. Where the configuration calls for an
// X-tree (single or per-shard), the supplied trees are decoded and
// validated instead of built from scratch. The index shape must match
// what cfg would build: bytes for an index the configuration does not
// use, or a missing tree for one it does, fail loudly rather than
// silently rebuilding, because a shape mismatch means the snapshot
// does not describe this configuration. A nil idx, or one with no
// trees at all, builds fresh: that is NewMiner.
func NewMinerWithIndex(ds *vector.Dataset, cfg Config, idx *IndexSnapshot) (*Miner, error) {
	if ds == nil {
		return nil, fmt.Errorf("core: nil dataset")
	}
	if ds.Dim() < 1 || ds.Dim() > subspace.MaxDim {
		return nil, fmt.Errorf("core: dimensionality %d out of [1,%d]", ds.Dim(), subspace.MaxDim)
	}
	if err := cfg.validate(ds); err != nil {
		return nil, err
	}
	warm := idx != nil && (idx.Tree != nil || idx.ShardTrees != nil)
	sharded := cfg.Shards >= 1
	if warm && sharded != (idx.ShardTrees != nil) {
		return nil, fmt.Errorf("core: index snapshot shape mismatch (config sharded: %v)", sharded)
	}
	scfg := shard.Config{Shards: cfg.Shards, Partitioner: cfg.Partitioner, Metric: cfg.Metric, Index: cfg.Backend}
	var index *shard.Index
	var engine *shard.Engine
	var err error
	switch {
	case sharded && warm:
		engine, err = shard.NewEngineFromEncoded(ds, scfg, idx.ShardTrees)
	case sharded:
		engine, err = shard.NewEngine(ds, scfg)
	case warm:
		index, err = shard.DecodeIndex(ds, cfg.Metric, cfg.Backend, idx.Tree)
	default:
		index, err = shard.NewIndex(ds, cfg.Metric, cfg.Backend)
	}
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return assemble(ds, cfg, index, engine)
}
