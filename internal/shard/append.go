package shard

import (
	"fmt"
	"runtime"

	"repro/internal/vector"
)

// Append returns a new Engine over newDS, reusing this engine's work
// where the partition allows it. newDS must extend the engine's
// dataset: same dimensionality, rows [0, e.ds.N()) byte-identical. The
// new rows are routed to their shards by the configured partitioner
// (deterministic in (row index, coordinates), so the assignment
// matches what NewEngine over the full dataset would compute), and
// only the shards that receive rows rebuild: their sub-datasets grow
// and their indexes take Index.Append (incremental X-tree insertion,
// or a first tree for a linear shard reaching AutoXTreeThreshold,
// exactly as a fresh partition would). Untouched shards share their
// partition — index and mapping — with the source engine, which stays
// valid and unchanged for in-flight searchers.
//
// The result is indistinguishable from NewEngine(newDS, e.Config()):
// identical partition maps, identical per-shard indexes (byte-for-byte
// under EncodedTrees), identical answers. Cumulative shard work
// counters are carried over as a snapshot; probes still running
// against the old engine keep charging the old counters.
func (e *Engine) Append(newDS *vector.Dataset) (*Engine, error) {
	if newDS == nil {
		return nil, fmt.Errorf("shard: append: nil dataset")
	}
	d := e.ds.Dim()
	if newDS.Dim() != d {
		return nil, fmt.Errorf("shard: append: dim %d != engine dim %d", newDS.Dim(), d)
	}
	oldN, n := e.ds.N(), newDS.N()
	if n < oldN {
		return nil, fmt.Errorf("shard: append: dataset has %d rows, engine indexes %d", n, oldN)
	}
	oldSlab, newSlab := e.ds.Slab(), newDS.Slab()
	for i := 0; i < oldN*d; i++ {
		if oldSlab[i] != newSlab[i] {
			return nil, fmt.Errorf("shard: append: row %d differs from the indexed dataset", i/d)
		}
	}

	shards := e.cfg.Shards
	ne := &Engine{
		ds:       newDS,
		cfg:      e.cfg,
		parts:    make([]*partition, shards),
		shardOf:  make([]int32, n),
		localOf:  make([]int32, n),
		work:     make([]shardCounters, shards),
		parallel: shards > 1 && runtime.GOMAXPROCS(0) > 1,
	}
	copy(ne.shardOf, e.shardOf)
	copy(ne.localOf, e.localOf)
	for s := range e.work {
		ne.work[s].queries.Store(e.work[s].queries.Load())
		ne.work[s].pointsExamined.Store(e.work[s].pointsExamined.Load())
		ne.work[s].nodesVisited.Store(e.work[s].nodesVisited.Load())
	}

	added := make([][]int, shards)
	for i := oldN; i < n; i++ {
		s := e.cfg.Partitioner.Assign(i, newDS.Point(i), shards)
		ne.shardOf[i] = int32(s)
		ne.localOf[i] = int32(e.parts[s].index.ds.N() + len(added[s]))
		added[s] = append(added[s], i)
	}

	for s, old := range e.parts {
		if len(added[s]) == 0 {
			ne.parts[s] = old // untouched: share wholesale
			continue
		}
		oldSub := old.index.ds
		flat := make([]float64, 0, (oldSub.N()+len(added[s]))*d)
		flat = append(flat, oldSub.Slab()...)
		for _, g := range added[s] {
			flat = append(flat, newDS.Point(g)...)
		}
		sub, err := vector.NewDataset(flat, oldSub.N()+len(added[s]), d)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		idx, err := old.index.Append(sub)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		global := make([]int, 0, len(old.global)+len(added[s]))
		global = append(global, old.global...)
		global = append(global, added[s]...)
		ne.parts[s] = &partition{index: idx, global: global}
	}
	return ne, nil
}
