package core

import (
	"context"

	"repro/internal/od"
	"repro/internal/subspace"
	"repro/internal/vector"
)

// This file keeps the Miner's two per-row columns (DESIGN §11.1):
// fullOD[i], row i's full-space OD, which a TQuantile threshold is
// resolved from, and kthDist[i], the distance of row i's k-th
// full-space neighbour, which bounds the rows a mutation can change.
// Preprocess fills every row of a Miner that has no column yet;
// WithAppendedBatch and WithoutRows derive the child's columns from
// the parent's and refill only the rows the mutation can change. A
// fixed-T Miner keeps no column, and a Miner built by Restore has
// none, so its first derivation fills every row.

// columnFill is one fill of a Miner's columns: the body of a worker
// loop over n listed rows (rows[i], or row i itself when rows is nil).
// Each visit writes only its own row's slots, so the columns do not
// depend on the loop's width.
type columnFill struct {
	m    *Miner
	rows []int
	loop workerLoop
}

func (f *columnFill) visit(_ context.Context, eval *od.Evaluator, _, i int) error {
	if f.rows != nil {
		i = f.rows[i]
	}
	f.m.fullOD[i], f.m.kthDist[i] = eval.FullSpaceRow(i)
	return nil
}

// fillColumns computes n rows of both columns — rows[0:n], or rows
// 0..n-1 when rows is nil — through the evaluator's full-space k-NN,
// on the Miner's worker loop at its default width, and counts them in
// columnRows. The columns must already have the dataset's length.
func (m *Miner) fillColumns(n int, rows []int) error {
	m.columnRows += n
	if n == 0 {
		return nil
	}
	f := &columnFill{m: m, rows: rows}
	return f.loop.run(context.Background(), m, f, n, loopWidth(0, n))
}

// refill completes columns a derivation has carried over from its
// parent: it recomputes each of the first n rows p that one of the
// mutated rows reaches within kthDist[p], and every row from n on,
// which has no value yet. An appended row changes p's k smallest
// distances only if it lands strictly inside the radius (onRadius
// false); a deleted row can change them if it lies on or inside it
// (onRadius true). Distances are vector.DistDims over the full space,
// the kernel and square root every searcher uses, so a probe distance
// equals the searched one bit for bit.
func (m *Miner) refill(n int, mutated [][]float64, onRadius bool) error {
	dims := subspace.Full(m.ds.Dim()).AppendDims(nil)
	var rows []int
	for p := 0; p < n; p++ {
		point, radius := m.ds.Point(p), m.kthDist[p]
		for _, r := range mutated {
			if d := vector.DistDims(m.cfg.Metric, dims, point, r); d < radius || onRadius && d == radius {
				rows = append(rows, p)
				break
			}
		}
	}
	for p := n; p < m.ds.N(); p++ {
		rows = append(rows, p)
	}
	return m.fillColumns(len(rows), rows)
}

// ColumnRowsComputed returns how many column rows this Miner computed:
// every row for the full pass of Preprocess, the rows a mutation can
// change for a WithAppendedBatch or WithoutRows child, and 0 for a
// fixed-T Miner or one built by Restore.
func (m *Miner) ColumnRowsComputed() int { return m.columnRows }
