package core

import (
	"fmt"
	"math"

	"repro/internal/shard"
	"repro/internal/vector"
)

// This file is the copy-on-write mutation surface of the Miner: a
// Miner stays immutable after Preprocess (the concurrency contract
// every query path relies on), so "mutating" a live dataset means
// deriving a complete replacement Miner and swapping it in at a higher
// layer (internal/server's epoch views). WithAppendedBatch reuses the
// old index incrementally where that is exact; WithoutRows rebuilds the
// index. Both carry the parent's per-row full-space columns over and
// recompute only the rows the mutation can change (column.go).
//
// Exactness contract, relied on by internal/conformance: the returned
// Miner is indistinguishable — answers, thresholds, learned priors,
// encoded index bytes — from NewMiner over the final dataset followed
// by Preprocess. That holds because (a) shard.Index.Append and
// shard.Engine.Append continue the deterministic X-tree insertion
// sequence byte-identically, (b) every column row a mutation cannot
// change keeps its bits and every other one is recomputed through the
// new index (DESIGN §11.1), so the column equals a fresh build's, and
// (c) Preprocess is re-run from a fresh seed-derived rng, so a
// TQuantile threshold and sampled learning resolve against the
// mutated dataset exactly as a from-scratch build would.

// ValidateRows checks appended rows for shape and finiteness (a single
// NaN would poison every distance it touches). Exported so the serving
// layer's mutation coalescer can pre-validate each queued request
// individually — one malformed request then fails alone instead of
// poisoning the whole drained batch.
func ValidateRows(rows [][]float64, dim int) error {
	if len(rows) == 0 {
		return fmt.Errorf("core: append: no rows")
	}
	for i, r := range rows {
		if len(r) != dim {
			return fmt.Errorf("core: append: row %d has %d values, want %d", i, len(r), dim)
		}
		if j := nonFinite(r); j >= 0 {
			return fmt.Errorf("core: append: row %d column %d is not finite", i, j)
		}
	}
	return nil
}

// nonFinite returns the index of p's first NaN or ±Inf coordinate, or
// -1 when every coordinate is finite. Appended rows and external query
// points are both checked with it.
//
//hos:hotpath
func nonFinite(p []float64) int {
	for j, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return j
		}
	}
	return -1
}

// WithAppendedBatch returns a new preprocessed Miner over this Miner's
// dataset extended by every batch, in order, applied as one amortized
// step: rows are validated once, per batch (so the caller can
// attribute a failure to the request that carried it), routed to
// shards once, and the threshold/priors re-resolved once. The receiver
// is unchanged and stays fully serviceable — in-flight queries against
// it are unaffected.
//
// The k-NN index is extended incrementally: an unsharded index takes
// shard.Index.Append (X-tree insertion via the linked scaffolding and
// a repack, or a first tree for a linear index reaching the auto
// threshold), and a sharded engine routes the rows to their shards and
// extends only those (shard.Engine.Append). The full-space columns are
// extended too: the new rows, and every existing row an appended row
// lands strictly inside the k-th-neighbour radius of, are recomputed.
// Preprocess then re-resolves the threshold from the column and the
// learning against the grown dataset, so the result is byte-identical
// to a from-scratch build (see the file comment). Conformance pins
// that a chain of one-batch calls, one call with several batches and a
// one-shot build all agree.
func (m *Miner) WithAppendedBatch(batches ...[][]float64) (*Miner, error) {
	total := 0
	for bi, rows := range batches {
		if err := ValidateRows(rows, m.ds.Dim()); err != nil {
			return nil, fmt.Errorf("core: append batch %d: %w", bi, err)
		}
		total += len(rows)
	}
	if total == 0 {
		return nil, fmt.Errorf("core: append: no rows")
	}
	rows := make([][]float64, 0, total)
	for _, b := range batches {
		rows = append(rows, b...)
	}
	newDS, err := m.ds.Append(rows...)
	if err != nil {
		return nil, err
	}

	var index *shard.Index
	var engine *shard.Engine
	if m.shards != nil {
		engine, err = m.shards.Append(newDS)
	} else {
		index, err = m.index.Append(newDS)
	}
	if err != nil {
		return nil, err
	}
	nm, err := assemble(newDS, m.cfg, index, engine)
	if err != nil {
		return nil, err
	}
	if m.fullOD != nil {
		nm.fullOD, nm.kthDist = make([]float64, newDS.N()), make([]float64, newDS.N())
		copy(nm.fullOD, m.fullOD)
		copy(nm.kthDist, m.kthDist)
		if err := nm.refill(m.ds.N(), rows, false); err != nil {
			return nil, err
		}
	}
	if err := nm.Preprocess(); err != nil {
		return nil, err
	}
	return nm, nil
}

// WithoutRows returns a new preprocessed Miner over only the rows of
// this Miner's dataset whose indices appear in keep (ascending, no
// duplicates). The index is rebuilt from the survivors, so its encoded
// bytes are a fresh build's. The full-space columns are carried over
// through keep, and only the survivors a deleted row lies on or inside
// the k-th-neighbour radius of are recomputed; the result is
// byte-identical to a from-scratch build (see the file comment). The
// configuration must remain satisfiable at the reduced size (K below
// the row count, shard width and sample size within it); a deletion
// that would violate it is rejected rather than clamped.
func (m *Miner) WithoutRows(keep []int) (*Miner, error) {
	if len(keep) == 0 {
		return nil, fmt.Errorf("core: delete: cannot delete every row")
	}
	prev := -1
	for _, i := range keep {
		if i <= prev || i >= m.ds.N() {
			return nil, fmt.Errorf("core: delete: keep list not ascending in [0,%d)", m.ds.N())
		}
		prev = i
	}
	if len(keep) == m.ds.N() {
		return nil, fmt.Errorf("core: delete: no rows deleted")
	}
	d := m.ds.Dim()
	flat := make([]float64, 0, len(keep)*d)
	for _, i := range keep {
		flat = append(flat, m.ds.Point(i)...)
	}
	newDS, err := vector.NewDataset(flat, len(keep), d)
	if err != nil {
		return nil, err
	}
	if err := m.cfg.validate(newDS); err != nil {
		return nil, fmt.Errorf("core: delete leaves %d rows: %w", len(keep), err)
	}
	nm, err := NewMiner(newDS, m.cfg)
	if err != nil {
		return nil, err
	}
	if m.fullOD != nil {
		nm.fullOD, nm.kthDist = make([]float64, len(keep)), make([]float64, len(keep))
		deleted := make([][]float64, 0, m.ds.N()-len(keep))
		j := 0
		for i := range m.ds.N() {
			if j < len(keep) && keep[j] == i {
				nm.fullOD[j], nm.kthDist[j] = m.fullOD[i], m.kthDist[i]
				j++
			} else {
				deleted = append(deleted, m.ds.Point(i))
			}
		}
		if err := nm.refill(len(keep), deleted, true); err != nil {
			return nil, err
		}
	}
	if err := nm.Preprocess(); err != nil {
		return nil, err
	}
	return nm, nil
}
