package core

import (
	"fmt"
	"slices"

	"repro/internal/shard"
	"repro/internal/subspace"
	"repro/internal/vector"
)

// State is the outcome of preprocessing: the resolved threshold and
// the learned priors. internal/snapshot persists it inside a .snap
// file beside the Miner's configuration and index, which lets a
// service restart (or a different process) answer queries without
// re-running the quantile resolution and the §3.2 learning phase,
// which dominate startup cost on large datasets.
type State struct {
	// Threshold is the resolved T.
	Threshold float64
	// PUp/PDown are the query priors (index 0 unused).
	PUp   []float64
	PDown []float64
	// Learned records whether the priors came from learning (vs
	// uniform).
	Learned bool
}

// IndexSnapshot is the serialized k-NN index of a Miner: the encoded
// X-tree bytes a warm restart hands back to Restore so it can skip
// the index build. At most one of the layouts is populated; a
// linear-scan miner has neither (there is nothing to persist — the
// dataset is the index).
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

// Export captures what a snapshot stores of a preprocessed Miner
// beside its dataset and configuration: its state and its serialized
// k-NN index. It fails if Preprocess has not run yet.
func (m *Miner) Export() (*State, *IndexSnapshot, error) {
	if !m.preprocessed {
		return nil, nil, fmt.Errorf("core: Export before Preprocess")
	}
	idx := &IndexSnapshot{}
	var err error
	if m.shards != nil {
		idx.ShardTrees, err = m.shards.EncodedTrees()
	} else {
		idx.Tree, err = m.index.Encode()
	}
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	return &State{
		Threshold: m.threshold,
		PUp:       slices.Clone(m.priors.PUp),
		PDown:     slices.Clone(m.priors.PDown),
		Learned:   m.learned,
	}, idx, nil
}

// Restore rebuilds a preprocessed Miner from what Export captured,
// over the dataset and configuration it was built with: the index is
// decoded rather than built wherever cfg calls for an X-tree, and st
// is installed rather than relearned, so no OD evaluation runs. The
// inputs usually come from a file, so each is checked: the
// configuration against the dataset, the index shape and bytes
// against the configuration (see newMiner), and the state's
// threshold and priors against the dataset's dimensionality.
func Restore(ds *vector.Dataset, cfg Config, st *State, idx *IndexSnapshot) (*Miner, error) {
	if st == nil {
		return nil, fmt.Errorf("core: nil state")
	}
	m, err := newMiner(ds, cfg, idx)
	if err != nil {
		return nil, err
	}
	if !positiveFinite(st.Threshold) {
		return nil, fmt.Errorf("core: state threshold %v must be positive and finite", st.Threshold)
	}
	priors := Priors{PUp: slices.Clone(st.PUp), PDown: slices.Clone(st.PDown)}
	if err := priors.Validate(); err != nil {
		return nil, fmt.Errorf("core: state priors: %w", err)
	}
	if priors.Dim() != ds.Dim() {
		return nil, fmt.Errorf("core: state priors cover %d layers, want %d", priors.Dim(), ds.Dim())
	}
	m.threshold, m.priors, m.learned, m.preprocessed = st.Threshold, priors, st.Learned, true
	return m, nil
}

// newMiner validates the configuration and builds the Miner's k-NN
// index, decoding it from idx when idx carries encoded trees. The
// index shape must match what cfg would build: bytes for an index the
// configuration does not use, or a missing tree for one it does, fail
// loudly rather than silently rebuilding, because a shape mismatch
// means the snapshot does not describe this configuration. A nil idx,
// or one with no trees at all, builds fresh.
func newMiner(ds *vector.Dataset, cfg Config, idx *IndexSnapshot) (*Miner, error) {
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
