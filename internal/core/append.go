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
// layer (internal/server's epoch views). WithAppended reuses the old
// index incrementally where that is exact; WithoutRows rebuilds.
//
// Exactness contract, relied on by internal/conformance: the returned
// Miner is indistinguishable — answers, thresholds, learned priors,
// encoded index bytes — from NewMiner over the final dataset followed
// by Preprocess. That holds because (a) shard.Index.Append and
// shard.Engine.Append continue the deterministic X-tree insertion
// sequence byte-identically, and
// (b) Preprocess is re-run from a fresh seed-derived rng, so a
// TQuantile threshold and sampled learning resolve against the grown
// dataset exactly as a from-scratch build would.

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
		for j, v := range r {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: append: row %d column %d is not finite", i, j)
			}
		}
	}
	return nil
}

// WithAppended returns a new preprocessed Miner over this Miner's
// dataset extended by rows. The receiver is unchanged and stays fully
// serviceable — in-flight queries against it are unaffected.
//
// The k-NN index is extended incrementally: an unsharded index takes
// shard.Index.Append (X-tree insertion via the linked scaffolding and
// a repack, or a first tree for a linear index reaching the auto
// threshold), and a sharded engine routes the rows to their shards and
// extends only those (shard.Engine.Append). Preprocess then
// re-resolves the threshold and learning against the grown dataset,
// so the result is byte-identical to a from-scratch build (see the
// file comment).
func (m *Miner) WithAppended(rows [][]float64) (*Miner, error) {
	if err := ValidateRows(rows, m.ds.Dim()); err != nil {
		return nil, err
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
	if err := nm.Preprocess(); err != nil {
		return nil, err
	}
	return nm, nil
}

// WithAppendedBatch returns a new preprocessed Miner over this Miner's
// dataset extended by every batch, applied as one amortized step: rows
// are validated per batch (so the caller can attribute a failure to
// the request that carried it), routed to shards once, and the
// threshold/priors re-resolved once — instead of once per batch the
// way a WithAppended chain would. Exactness is inherited rather than
// re-argued: conformance already pins that chunked WithAppended calls
// equal a one-shot build, so applying the concatenation in one
// WithAppended call sits between those two pinned points.
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
	all := make([][]float64, 0, total)
	for _, rows := range batches {
		all = append(all, rows...)
	}
	return m.WithAppended(all)
}

// WithoutRows returns a new preprocessed Miner over only the rows of
// this Miner's dataset whose indices appear in keep (ascending, no
// duplicates). Deletion changes every surviving row's neighbourhood,
// so there is no exact incremental path — the replacement is a full
// from-scratch build, which is trivially identical to one. The
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
	if err := nm.Preprocess(); err != nil {
		return nil, err
	}
	return nm, nil
}
