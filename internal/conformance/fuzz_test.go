package conformance

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/snapshot"
	"repro/internal/vector"
)

// fuzzCase is one decoded FuzzEngineEquivalence input.
type fuzzCase struct {
	rows   [][]float64
	points [][]float64
	k      int
	tq     float64
	// keep lists the rows the deleted engine keeps.
	keep []int
}

// decodeFuzzCase turns fuzz bytes into data built to tie: d in 2–6
// columns on 2–5 integer grid levels, N in 40–208 rows, column 0
// constant and the last quarter of the rows copies of the first
// quarter; k in 2–5, TQuantile in 0.80–0.95, four external points
// on the same grid, and a keep list that drops every row i with
// i mod s = o for a stride s in 2–6, copies and originals alike. Once
// the input runs out, bytes come from a generator seeded by the whole
// input, so short inputs still fill the grid.
func decodeFuzzCase(data []byte) fuzzCase {
	h := fnv.New64a()
	h.Write(data)
	state := h.Sum64()
	next := func() byte {
		if len(data) > 0 {
			b := data[0]
			data = data[1:]
			return b
		}
		state = state*6364136223846793005 + 1442695040888963407
		return byte(state >> 56)
	}
	d := 2 + int(next()%5)
	levels := 2 + int(next()%4)
	n := 40 + int(next()%169)
	c := fuzzCase{k: 2 + int(next()%4), tq: 0.80 + float64(next()%16)/100}
	cell := func() float64 { return float64(int(next()) % levels) }
	copies := n - n/4
	c.rows = make([][]float64, n)
	for i := range c.rows {
		if i >= copies {
			c.rows[i] = c.rows[i-copies]
			continue
		}
		c.rows[i] = make([]float64, d)
		for j := 1; j < d; j++ {
			c.rows[i][j] = cell()
		}
	}
	c.points = make([][]float64, 4)
	for i := range c.points {
		c.points[i] = make([]float64, d)
		for j := range c.points[i] {
			c.points[i][j] = cell()
		}
	}
	b := int(next())
	stride := 2 + b%5
	for i := range c.rows {
		if i%stride != b/5%stride {
			c.keep = append(c.keep, i)
		}
	}
	return c
}

// fuzzMiner builds and preprocesses a miner over rows with the case's
// parameters.
func fuzzMiner(c fuzzCase, rows [][]float64, backend core.Backend) (*core.Miner, error) {
	ds, err := vector.FromRows(rows)
	if err != nil {
		return nil, err
	}
	m, err := core.NewMiner(ds, core.Config{K: c.k, TQuantile: c.tq, Seed: 1, Backend: backend})
	if err != nil {
		return nil, err
	}
	if err := m.Preprocess(); err != nil {
		return nil, err
	}
	return m, nil
}

// describe renders every field of a result the engines must agree on,
// floats by their bits, with evals as the OD evaluation count.
func describe(r *core.QueryResult, evals int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "T=%x outlying=%v minimal=%v anywhere=%v counters=%+v layers=%v frac=[",
		math.Float64bits(r.Threshold), r.Outlying, r.Minimal, r.IsOutlierAnywhere, r.Counters, r.LayerOrder)
	for _, f := range r.PerLayerOutlierFrac {
		fmt.Fprintf(&b, " %x", math.Float64bits(f))
	}
	fmt.Fprintf(&b, " ] evals=%d", evals)
	return b.String()
}

// answerAll answers every row of m and every external point through
// the single-query path.
func answerAll(m *core.Miner, points [][]float64) ([]*core.QueryResult, error) {
	n := m.Dataset().N()
	out := make([]*core.QueryResult, 0, n+len(points))
	for i := 0; i < n; i++ {
		r, err := m.OutlyingSubspacesOfPoint(i)
		if err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
		out = append(out, r)
	}
	for i, p := range points {
		r, err := m.OutlyingSubspaces(p)
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// FuzzEngineEquivalence answers every row and every external point of
// tie-heavy grid data through five engines — linear, X-tree, restored
// from a snapshot, grown by appends, and one batch — and requires
// equal full results: threshold bits, outlying and minimal sets,
// lattice counters, layer order, per-layer outlier fractions and OD
// evaluations. Ties, duplicate rows and a constant column are where a
// bound written with < instead of ≤ goes wrong. A Preprocess refusal
// (duplicate-heavy data can resolve to a non-positive threshold) is a
// valid outcome when both backends refuse alike. A sixth engine drops
// the case's rows with WithoutRows, from the appended miner when there
// is one, and must answer as a fresh linear miner over the survivors
// does, or refuse alike.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 3, 160, 3, 15})
	f.Add([]byte{2, 1, 0, 0, 0, 1, 0, 1, 1})
	f.Add([]byte("tie-heavy grid with duplicate rows"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeFuzzCase(data)
		lin, errL := fuzzMiner(c, c.rows, core.BackendLinear)
		xt, errX := fuzzMiner(c, c.rows, core.BackendXTree)
		if errL != nil || errX != nil {
			if errL == nil || errX == nil || errL.Error() != errX.Error() {
				t.Fatalf("preprocess: linear %v, xtree %v", errL, errX)
			}
			return
		}
		ref, err := answerAll(lin, c.points)
		if err != nil {
			t.Fatalf("linear: %v", err)
		}
		want := make([]string, len(ref))
		for i, r := range ref {
			want[i] = describe(r, r.ODEvaluations)
		}
		check := func(engine string, got []*core.QueryResult) {
			t.Helper()
			for i, r := range got {
				if s := describe(r, r.ODEvaluations); s != want[i] {
					t.Fatalf("%s diverges from linear at item %d:\n%s\n%s", engine, i, s, want[i])
				}
			}
		}

		got, err := answerAll(xt, c.points)
		if err != nil {
			t.Fatalf("xtree: %v", err)
		}
		check("xtree", got)

		snap, err := snapshot.Capture("fuzz", snapshot.Provenance{}, xt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := snapshot.Write(&buf, snap); err != nil {
			t.Fatal(err)
		}
		back, err := snapshot.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := back.Restore()
		if err != nil {
			t.Fatal(err)
		}
		if got, err = answerAll(restored, c.points); err != nil {
			t.Fatalf("restored: %v", err)
		}
		check("restored", got)

		prefix := len(c.rows) * 2 / 3
		mid := prefix + (len(c.rows)-prefix)/3
		source := xt
		if base, err := fuzzMiner(c, c.rows[:prefix], core.BackendXTree); err == nil {
			appended, err := base.WithAppendedBatch(c.rows[prefix:mid], c.rows[mid:])
			if err != nil {
				t.Fatalf("append: %v", err)
			}
			if got, err = answerAll(appended, c.points); err != nil {
				t.Fatalf("appended: %v", err)
			}
			check("appended", got)
			source = appended
		}

		survivors := make([][]float64, len(c.keep))
		for j, i := range c.keep {
			survivors[j] = c.rows[i]
		}
		deleted, errD := source.WithoutRows(c.keep)
		fresh, errF := fuzzMiner(c, survivors, core.BackendLinear)
		if errD != nil || errF != nil {
			if errD == nil || errF == nil || errD.Error() != errF.Error() {
				t.Fatalf("delete: derived %v, fresh %v", errD, errF)
			}
		} else {
			wantDel, err := answerAll(fresh, c.points)
			if err != nil {
				t.Fatalf("fresh survivors: %v", err)
			}
			gotDel, err := answerAll(deleted, c.points)
			if err != nil {
				t.Fatalf("deleted: %v", err)
			}
			for i, r := range gotDel {
				if s, w := describe(r, r.ODEvaluations), describe(wantDel[i], wantDel[i].ODEvaluations); s != w {
					t.Fatalf("deleted diverges from a fresh miner over the survivors at item %d:\n%s\n%s", i, s, w)
				}
			}
		}

		items := make([]core.BatchQuery, 0, len(ref))
		for i := range c.rows {
			items = append(items, core.BatchIndex(i))
		}
		for _, p := range c.points {
			items = append(items, core.BatchPoint(p))
		}
		res, err := xt.QueryBatch(context.Background(), items, core.BatchOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i, item := range res.Items {
			if item.Err != nil {
				t.Fatalf("batch item %d: %v", i, item.Err)
			}
			// A repeated external point is answered once; its copies
			// carry 0 evaluations.
			evals := ref[i].ODEvaluations
			if j := i - len(c.rows); j > 0 && slices.ContainsFunc(c.points[:j], func(p []float64) bool {
				return slices.Equal(p, c.points[j])
			}) {
				evals = 0
			}
			if s, w := describe(item.Result, item.Result.ODEvaluations), describe(ref[i], evals); s != w {
				t.Fatalf("batch diverges from linear at item %d:\n%s\n%s", i, s, w)
			}
		}
	})
}
