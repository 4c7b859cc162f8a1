package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name         string
		base, head   []float64
		bound        float64
		higherBetter bool
		want         string
	}{
		{"same runs", steady, steady, 0.05, false, unchanged},
		{"within bound", steady, scale(steady, 1.03), 0.05, false, unchanged},
		{"slower beyond bound", steady, scale(steady, 1.10), 0.05, false, regressed},
		{"faster on every pair", steady, scale(steady, 0.8), 0.05, false, improved},
		{"throughput up", steady, scale(steady, 1.2), 0.05, true, improved},
		{"throughput down", steady, scale(steady, 0.9), 0.05, true, regressed},
		{"spread wider than bound", noisy, noisy, 0.05, false, unresolved},
		{"noisy but every run better", noisy, scale(noisy, 0.2), 0.05, false, improved},
		// Better on 8 of 10 pairs only: not a claimable gain, and within
		// the bound, so unchanged.
		{"wins 8 of 10", steady, []float64{99, 100, 98, 99, 101, 97, 99, 102, 100, 99}, 0.05, false, unchanged},
		// Three of three pairs is no claimable gain: fewer than ten pairs.
		{"3 pairs only", steady[:3], scale(steady[:3], 0.9), 0.2, false, unchanged},
	} {
		got := verdict(newSide(c.base), newSide(c.head), c.bound, c.higherBetter)
		if got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareFiles runs -compare over two result files and checks the
// table names every workload × metric present in both with a verdict.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	bench := benchmarkFile{EndToEnd: []metricDef{
		{Name: "req_p50_ms", Unit: "ms", Better: "lower", Bound: 0.05},
		{Name: "req_per_s", Unit: "1/s", Better: "higher", Bound: 0.05},
	}}
	writeJSON(t, filepath.Join(dir, "BENCHMARK.json"), bench)
	doc := func(p50, rps float64) *resultDoc {
		d := &resultDoc{}
		for i := range 3 {
			f := 1 + float64(i)/1000
			d.Runs = append(d.Runs, map[string]*e2eResult{
				"cold_query": {Metrics: map[string]float64{"req_p50_ms": p50 * f, "req_per_s": rps * f}},
			})
		}
		return d
	}
	writeJSON(t, filepath.Join(dir, "base.json"), doc(1, 1000))
	writeJSON(t, filepath.Join(dir, "head.json"), doc(1.5, 1000))
	var out bytes.Buffer
	if err := compareFiles(dir, filepath.Join(dir, "base.json"), filepath.Join(dir, "head.json"), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want a header and 2 rows, got:\n%s", out.String())
	}
	if !strings.Contains(lines[1], "req_p50_ms") || !strings.HasSuffix(lines[1], regressed) {
		t.Errorf("p50 row: %s", lines[1])
	}
	if !strings.Contains(lines[2], "req_per_s") || !strings.HasSuffix(lines[2], unchanged) {
		t.Errorf("rps row: %s", lines[2])
	}
}

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
