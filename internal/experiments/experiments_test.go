package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func TestTableRenderAndCSV(t *testing.T) {
	tab := &Table{
		ID:     "X1",
		Title:  "demo",
		Header: []string{"a", "bb"},
		Notes:  []string{"a note"},
	}
	tab.AddRow(1, 2.5)
	tab.AddRow("x", 0.0001)
	var text bytes.Buffer
	if err := tab.Render(&text); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	for _, want := range []string{"X1", "demo", "a note", "2.500"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	var csvBuf bytes.Buffer
	if err := tab.CSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 3 || lines[0] != "a,bb" {
		t.Fatalf("csv = %q", csvBuf.String())
	}
	var md bytes.Buffer
	if err := tab.Markdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "| a | bb |") {
		t.Fatalf("markdown = %q", md.String())
	}
}

func TestScaleString(t *testing.T) {
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Fatal("scale names")
	}
}

func TestIDsCoverByID(t *testing.T) {
	r := NewRunner(Quick, 1)
	for _, id := range IDs() {
		tab, err := r.ByID(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if tab.ID != id {
			t.Fatalf("ByID(%s) returned table %s", id, tab.ID)
		}
		if len(tab.Rows) == 0 || len(tab.Header) == 0 {
			t.Fatalf("%s: empty table", id)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Fatalf("%s: row width %d != header %d", id, len(row), len(tab.Header))
			}
		}
	}
	if _, err := r.ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestAllRunsEveryExperiment runs every id through ByID, the path
// hosbench takes.
func TestAllRunsEveryExperiment(t *testing.T) {
	r := NewRunner(Quick, 2)
	for _, id := range IDs() {
		tab, err := r.ByID(id)
		if err != nil {
			t.Fatalf("experiment %s: %v", id, err)
		}
		if tab.ID != id {
			t.Fatalf("ByID(%s) returned table %s", id, tab.ID)
		}
	}
}

func cell(t *testing.T, tab *Table, row int, col string) string {
	t.Helper()
	for i, h := range tab.Header {
		if h == col {
			return tab.Rows[row][i]
		}
	}
	t.Fatalf("column %q not in %v", col, tab.Header)
	return ""
}

func cellFloat(t *testing.T, tab *Table, row int, col string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, tab, row, col), 64)
	if err != nil {
		t.Fatalf("cell %s[%d] = %q not numeric", col, row, cell(t, tab, row, col))
	}
	return v
}

// TestT1ContainsPaperExample: the DSF/USF worked example from §3.1
// must appear with the paper's values.
func TestT1ContainsPaperExample(t *testing.T) {
	tab, err := NewRunner(Quick, 1).T1SavingFactors()
	if err != nil {
		t.Fatal(err)
	}
	foundDSF, foundUSF := false, false
	for i := range tab.Rows {
		if cell(t, tab, i, "d") == "4" && cell(t, tab, i, "m") == "3" &&
			cell(t, tab, i, "DSF(m)") == "9" {
			foundDSF = true
		}
		if cell(t, tab, i, "d") == "4" && cell(t, tab, i, "m") == "2" &&
			cell(t, tab, i, "USF(m,d)") == "10" {
			foundUSF = true
		}
	}
	if !foundDSF || !foundUSF {
		t.Fatalf("paper example missing: DSF %v USF %v", foundDSF, foundUSF)
	}
}

// TestF1PruningBeatsNaive: HOS-Miner must evaluate far fewer
// subspaces than the naive sweep at the largest tested d.
func TestF1PruningBeatsNaive(t *testing.T) {
	tab, err := NewRunner(Quick, 3).F1RuntimeVsDim()
	if err != nil {
		t.Fatal(err)
	}
	last := len(tab.Rows) - 1
	hos := cellFloat(t, tab, last, "hos_evals")
	naive := cellFloat(t, tab, last, "naive_evals")
	if hos >= naive {
		t.Fatalf("hos evals %v not below naive %v", hos, naive)
	}
}

// TestF3EvaluatedFractionFalls: pruning should settle a growing share
// of the lattice as d rises.
func TestF3EvaluatedFractionFalls(t *testing.T) {
	tab, err := NewRunner(Quick, 4).F3PruningPower()
	if err != nil {
		t.Fatal(err)
	}
	first := cellFloat(t, tab, 0, "evaluated_frac")
	last := cellFloat(t, tab, len(tab.Rows)-1, "evaluated_frac")
	if last >= first {
		t.Fatalf("evaluated fraction did not fall: %v -> %v", first, last)
	}
}

// TestF5MonotoneOutlyingCounts: raising the threshold quantile cannot
// increase the number of outlying subspaces.
func TestF5MonotoneOutlyingCounts(t *testing.T) {
	tab, err := NewRunner(Quick, 5).F5Threshold()
	if err != nil {
		t.Fatal(err)
	}
	prev := cellFloat(t, tab, 0, "avg_outlying")
	for i := 1; i < len(tab.Rows); i++ {
		cur := cellFloat(t, tab, i, "avg_outlying")
		if cur > prev+1e-9 {
			t.Fatalf("row %d: outlying count rose with threshold (%v -> %v)", i, prev, cur)
		}
		prev = cur
	}
}

// TestT4FilterReduces: the minimal set must be no larger than the raw
// outlying set.
func TestT4FilterReduces(t *testing.T) {
	tab, err := NewRunner(Quick, 6).T4FilterReduction()
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		raw := cellFloat(t, tab, i, "avg_outlying")
		min := cellFloat(t, tab, i, "avg_minimal")
		if min > raw {
			t.Fatalf("row %d: minimal %v exceeds raw %v", i, min, raw)
		}
	}
}

// TestT2HOSBeatsEvolutionaryOnRecall: the headline effectiveness
// comparison — HOS-Miner's recall must be at least the GA's on the
// synthetic dataset (and in practice strictly higher overall).
func TestT2HOSBeatsEvolutionaryOnRecall(t *testing.T) {
	tab, err := NewRunner(Quick, 7).T2Effectiveness()
	if err != nil {
		t.Fatal(err)
	}
	recalls := map[string]map[string]float64{}
	for i := range tab.Rows {
		dsName := cell(t, tab, i, "dataset")
		method := cell(t, tab, i, "method")
		if recalls[dsName] == nil {
			recalls[dsName] = map[string]float64{}
		}
		recalls[dsName][method] = cellFloat(t, tab, i, "recall")
	}
	synth := recalls["synthetic"]
	if synth["hos-miner"] < synth["evolutionary"] {
		t.Fatalf("hos recall %v below evolutionary %v on synthetic",
			synth["hos-miner"], synth["evolutionary"])
	}
	if synth["hos-miner"] == 0 {
		t.Fatal("hos recall is zero on the easy synthetic dataset")
	}
}

// TestT3XTreePrunesOnLargestRun: the index should examine fewer
// points than the scan for full-space queries at the largest N.
func TestT3XTreePrunes(t *testing.T) {
	tab, err := NewRunner(Quick, 8).T3XTreeKNN()
	if err != nil {
		t.Fatal(err)
	}
	pruned := false
	for i := range tab.Rows {
		if cellFloat(t, tab, i, "scan_frac") < 0.9 {
			pruned = true
		}
	}
	if !pruned {
		t.Fatal("X-tree never examined <90% of points in any configuration")
	}
}

// TestF8AllPoliciesPresent checks the ablation covers all five
// variants and that uniform-priors TSF — the robust configuration —
// does not lose to random ordering.
func TestF8AllPoliciesPresent(t *testing.T) {
	tab, err := NewRunner(Quick, 9).F8OrderingAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("%d variants", len(tab.Rows))
	}
	evals := map[string]float64{}
	for i := range tab.Rows {
		evals[cell(t, tab, i, "policy")] = cellFloat(t, tab, i, "avg_evals")
	}
	if evals["tsf(uniform)"] > evals["random"]*1.2 {
		t.Fatalf("tsf(uniform) evals %v far above random %v", evals["tsf(uniform)"], evals["random"])
	}
}

// TestT5BothPoliciesValid: the ablation must produce rows for both
// data distributions at every d, with positive work counters.
func TestT5BothPoliciesValid(t *testing.T) {
	tab, err := NewRunner(Quick, 10).T5XTreeSplitAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 { // 2 dims x 2 distributions at quick scale
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for i := range tab.Rows {
		if cellFloat(t, tab, i, "xtree_pts") <= 0 || cellFloat(t, tab, i, "rstar_pts") <= 0 {
			t.Fatalf("row %d: zero work", i)
		}
		if cellFloat(t, tab, i, "xtree_nodes") < 1 || cellFloat(t, tab, i, "rstar_nodes") < 1 {
			t.Fatalf("row %d: no nodes", i)
		}
	}
}

// TestF9AllMetricsExactAndRecalled: every metric row must keep
// nonzero recall (the search is exact under any L_p metric).
func TestF9AllMetricsExactAndRecalled(t *testing.T) {
	tab, err := NewRunner(Quick, 11).F9MetricSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for i := range tab.Rows {
		if cellFloat(t, tab, i, "recall_subset") == 0 {
			t.Fatalf("metric %s: zero recall", cell(t, tab, i, "metric"))
		}
		if cellFloat(t, tab, i, "T(q95)") <= 0 {
			t.Fatalf("metric %s: bad threshold", cell(t, tab, i, "metric"))
		}
	}
}
