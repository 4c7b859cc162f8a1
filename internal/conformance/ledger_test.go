package conformance

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/knn"
	"repro/internal/od"
	"repro/internal/vector"
	"repro/internal/xtree"
)

var update = flag.Bool("update", false, "rewrite testdata/work_ledger.json from this run")

const ledgerFile = "work_ledger.json"

// ledgerShape is one fixed-seed stream of the work ledger: an X-tree
// miner over the first N rows of a synthetic stream, queried with
// Queries/2 member rows and the Queries/2 fresh points that follow
// them in the stream.
type ledgerShape struct {
	Name    string `json:"name"`
	N       int    `json:"n"`
	D       int    `json:"d"`
	Samples int    `json:"samples"`
	Queries int    `json:"queries"`
}

// ledgerWork is the k-NN work one way of answering a shape's queries
// took.
type ledgerWork struct {
	PointsExamined int64 `json:"points_examined"`
	NodesVisited   int64 `json:"nodes_visited"`
}

// ledgerEntry is the golden record of one shape: the lattice and OD
// counts, which both paths share, and the k-NN work of each path.
type ledgerEntry struct {
	ledgerShape
	ODEvaluations int64      `json:"od_evaluations"`
	Evaluated     int64      `json:"lattice_evaluated"`
	ImpliedUp     int64      `json:"lattice_implied_up"`
	ImpliedDown   int64      `json:"lattice_implied_down"`
	Exact         ledgerWork `json:"exact"`
	Decision      ledgerWork `json:"decision"`
}

// ledger is the golden file: the query streams, and the mutation
// streams.
type ledger struct {
	Queries   []ledgerEntry    `json:"queries"`
	Mutations []mutationLedger `json:"mutations"`
}

// mutationLedger is live_ingest's write cycle at small N over an
// X-tree miner: Cycles times, Appends appends of Batch fresh rows,
// then a trim back to the newest N rows. Each step records the rows
// the derived miner recomputed in its full-space columns
// (core.Miner.ColumnRowsComputed); a full pass would recompute every
// row.
type mutationLedger struct {
	N       int            `json:"n"`
	D       int            `json:"d"`
	Batch   int            `json:"batch"`
	Appends int            `json:"appends"`
	Cycles  int            `json:"cycles"`
	Full    int            `json:"full_pass_rows"`
	Steps   []mutationStep `json:"steps"`
}

// mutationStep is one mutation of the stream.
type mutationStep struct {
	Op         string `json:"op"`
	Rows       int    `json:"rows"`
	ColumnRows int    `json:"column_rows"`
}

// ledgerShapes are shaped like the bench workloads at smaller N, with
// k 5, TQuantile 0.95 and seed 1 throughout.
var ledgerShapes = []ledgerShape{
	{Name: "n4000-d10", N: 4000, D: 10, Queries: 300},
	{Name: "n3000-d12-learned", N: 3000, D: 12, Samples: 16, Queries: 300},
	{Name: "n2000-d8", N: 2000, D: 8, Queries: 300},
	{Name: "n1000-d6", N: 1000, D: 6, Queries: 300},
}

// TestWorkLedger answers fixed-seed query streams twice over one
// X-tree: through its searcher, which decides OD ≥ T and stops early
// (knn.Decider), and through the same searcher with AtLeast hidden,
// so od takes the exact k-NN sum. Full results must be identical, and
// the work each path does — k-NN points examined and nodes visited,
// OD evaluations and lattice counters — must match the committed
// testdata/work_ledger.json. `go test ./internal/conformance -run
// TestWorkLedger -update` rewrites it; every diff belongs in
// CHANGES.md. The decision must examine at most half the points.
// The file also holds the mutation streams (runMutationLedger), whose
// every step must recompute fewer column rows than the dataset holds.
func TestWorkLedger(t *testing.T) {
	var got ledger
	for _, sh := range ledgerShapes {
		e := runLedgerShape(t, sh)
		if 2*e.Decision.PointsExamined > e.Exact.PointsExamined {
			t.Errorf("%s: the decision examined %d points, over half the exact path's %d",
				sh.Name, e.Decision.PointsExamined, e.Exact.PointsExamined)
		}
		got.Queries = append(got.Queries, e)
	}
	for _, n := range []int{1000, 3000} {
		ml := runMutationLedger(t, n)
		for _, st := range ml.Steps {
			if st.ColumnRows >= st.Rows {
				t.Errorf("N=%d: a %s recomputed %d column rows of %d: a full pass", n, st.Op, st.ColumnRows, st.Rows)
			}
		}
		got.Mutations = append(got.Mutations, ml)
	}
	path := filepath.Join("testdata", ledgerFile)
	enc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("work ledger differs from %s; run with -update and record the diff in CHANGES.md:\n%s", path, enc)
	}
}

// runLedgerShape builds the shape's miner and answers its queries
// through both evaluators, failing on the first differing result.
func runLedgerShape(t *testing.T, sh ledgerShape) ledgerEntry {
	t.Helper()
	fresh := sh.Queries / 2
	all, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{N: sh.N + fresh, D: sh.D, NumOutliers: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := vector.NewDataset(all.Slab()[:sh.N*sh.D], sh.N, sh.D)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMiner(ds, core.Config{K: 5, TQuantile: 0.95, Seed: 1, SampleSize: sh.Samples, Backend: core.BackendXTree})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Preprocess(); err != nil {
		t.Fatal(err)
	}
	// Build is deterministic: this is the tree the miner's index holds.
	tree, err := xtree.Build(ds, m.Config().Metric, xtree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	deciding := xtree.NewSearcher(tree)
	exact := struct{ knn.Searcher }{xtree.NewSearcher(tree)} // hides AtLeast
	evaluator := func(s knn.Searcher) *od.Evaluator {
		e, err := od.NewEvaluator(ds, s, m.Config().Metric, m.Config().K, od.NormNone)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	decEval, exactEval := evaluator(deciding), evaluator(exact)

	entry := ledgerEntry{ledgerShape: sh}
	for q := 0; q < sh.Queries; q++ {
		point, exclude := all.Point(sh.N+q/2), -1
		if q%2 == 0 {
			exclude = (q / 2) * (sh.N / fresh)
			point = ds.Point(exclude)
		}
		want, err := m.QueryWith(exactEval, point, exclude)
		if err != nil {
			t.Fatal(err)
		}
		wantDesc := describe(want, want.ODEvaluations)
		res, err := m.QueryWith(decEval, point, exclude)
		if err != nil {
			t.Fatal(err)
		}
		if got := describe(res, res.ODEvaluations); got != wantDesc {
			t.Fatalf("%s query %d (exclude %d): the decision's answer differs from the exact sum's:\n%s\n%s",
				sh.Name, q, exclude, got, wantDesc)
		}
		entry.ODEvaluations += res.ODEvaluations
		entry.Evaluated += res.Counters.Evaluations
		entry.ImpliedUp += res.Counters.ImpliedUp
		entry.ImpliedDown += res.Counters.ImpliedDown
	}
	work := func(s knn.Searcher) ledgerWork {
		st := s.Stats()
		return ledgerWork{PointsExamined: st.PointsExamined, NodesVisited: st.NodesVisited}
	}
	entry.Exact, entry.Decision = work(exact), work(deciding)
	t.Logf("%s: points examined %d exact, %d decided (%.2fx fewer)", sh.Name,
		entry.Exact.PointsExamined, entry.Decision.PointsExamined,
		float64(entry.Exact.PointsExamined)/float64(max(entry.Decision.PointsExamined, 1)))
	return entry
}

// runMutationLedger runs live_ingest's write cycle — four 64-row
// appends of fresh rows from the same synthetic stream, then a trim
// back to the newest n rows, twice — at d=8, and records the column
// rows each derived miner recomputed. Each step's threshold must equal
// a fresh build's over the same rows.
func runMutationLedger(t *testing.T, n int) mutationLedger {
	t.Helper()
	ml := mutationLedger{N: n, D: 8, Batch: 64, Appends: 4, Cycles: 2}
	all, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{
		N: ml.N + ml.Cycles*ml.Appends*ml.Batch, D: ml.D, NumOutliers: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{K: 5, TQuantile: 0.95, Seed: 1, Backend: core.BackendXTree}
	stream := all.Rows()
	rows := stream[:ml.N]
	m := freshLedgerMiner(t, rows, cfg)
	ml.Full = m.ColumnRowsComputed()
	next := ml.N
	step := func(op string, nm *core.Miner) {
		t.Helper()
		want := freshLedgerMiner(t, rows, cfg)
		if math.Float64bits(nm.Threshold()) != math.Float64bits(want.Threshold()) {
			t.Fatalf("after %s %d: threshold %v, a fresh build's %v", op, len(ml.Steps), nm.Threshold(), want.Threshold())
		}
		ml.Steps = append(ml.Steps, mutationStep{Op: op, Rows: len(rows), ColumnRows: nm.ColumnRowsComputed()})
		m = nm
	}
	for range ml.Cycles {
		for range ml.Appends {
			batch := stream[next : next+ml.Batch]
			next += ml.Batch
			nm, err := m.WithAppendedBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows[:len(rows):len(rows)], batch...)
			step("append", nm)
		}
		keep := make([]int, ml.N)
		for j := range keep {
			keep[j] = len(rows) - ml.N + j
		}
		nm, err := m.WithoutRows(keep)
		if err != nil {
			t.Fatal(err)
		}
		rows = rows[len(rows)-ml.N:]
		step("trim", nm)
	}
	return ml
}

// freshLedgerMiner builds and preprocesses a miner over rows.
func freshLedgerMiner(t *testing.T, rows [][]float64, cfg core.Config) *core.Miner {
	t.Helper()
	ds, err := vector.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMiner(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Preprocess(); err != nil {
		t.Fatal(err)
	}
	return m
}
