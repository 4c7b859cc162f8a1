package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// metricDef is one metric as BENCHMARK.json declares it. The bound
// lives only in BENCHMARK.json; the tables below carry name, unit and
// direction, and a test holds the two in agreement.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of hosserve sees, measured untraced
// against the child process. req_* describe the workload's primary
// request: /query (hot_lookup, cold_query), a 64-item /batch
// (batch_scoring) or a 64-row /append (live_ingest).
var endToEnd = []metricDef{
	{Name: "req_per_s", Unit: "1/s", Better: "higher"},
	{Name: "req_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "req_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "rss_peak_mib", Unit: "MiB", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

// perLayer are the traced pass's metrics, one or more per layer. Every
// workload reports all of them; a layer that does no work in a workload
// reads 0 there (no k-NN behind an LRU hit, no WAL without mutations).
var perLayer = []metricDef{
	{Name: "transport.us_p50", Unit: "us", Better: "lower"},
	{Name: "server.handle_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.handle_us_p90", Unit: "us", Better: "lower"},
	{Name: "server.self_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "overload.admit_release_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "core.op_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.op_us_p90", Unit: "us", Better: "lower"},
	{Name: "core.search_self_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.delete_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.preprocess_ms", Unit: "ms", Better: "lower"},
	{Name: "core.learn_ms", Unit: "ms", Better: "lower"},
	{Name: "lattice.evaluated_per_query", Unit: "count", Better: "lower"},
	{Name: "lattice.implied_up_per_query", Unit: "count", Better: "higher"},
	{Name: "lattice.implied_down_per_query", Unit: "count", Better: "higher"},
	{Name: "lattice.pruned_frac", Unit: "ratio", Better: "higher"},
	{Name: "od.evals_per_query", Unit: "count", Better: "lower"},
	{Name: "od.full_space_ods_ms", Unit: "ms", Better: "lower"},
	{Name: "od.shared_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "knn.calls_per_query", Unit: "count", Better: "lower"},
	{Name: "knn.call_us_p50", Unit: "us", Better: "lower"},
	{Name: "knn.points_examined_per_call", Unit: "count", Better: "lower"},
	{Name: "knn.nodes_visited_per_call", Unit: "count", Better: "lower"},
	{Name: "shard.imbalance", Unit: "ratio", Better: "lower"},
	{Name: "xtree.build_ms", Unit: "ms", Better: "lower"},
	{Name: "xtree.append_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.append_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.commit_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "dataio.load_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

// glossary is the run report's per-operation view, in print order: the
// names a reader of README.md looks up, each printed for the workloads
// it applies to. op names the operation whose sample count goes with a
// latency.
var glossary = []struct{ name, unit, op string }{
	{"setup_s", "s", ""},
	{"query_rps", "1/s", ""},
	{"query_p50_ms", "ms", "query"},
	{"query_p99_ms", "ms", "query"},
	{"batch_items_per_s", "1/s", ""},
	{"batch_p50_ms", "ms", "batch"},
	{"batch_p99_ms", "ms", "batch"},
	{"append_rows_per_s", "1/s", ""},
	{"append_p50_ms", "ms", "append"},
	{"append_p90_ms", "ms", "append"},
	{"delete_p50_ms", "ms", "delete"},
	{"recovery_s", "s", ""},
	{"error_rate", "ratio", ""},
	{"rss_peak_mb", "MiB", ""},
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []nameWhy   `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type nameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// resultDoc is the -out file: every run, the traced passes and the
// layer budgets, with the conditions they were measured under.
type resultDoc struct {
	Meta    resultMeta                        `json:"meta"`
	Runs    []map[string]*e2eResult           `json:"runs"`
	Traced  map[string]*tracedResult          `json:"traced,omitempty"`
	Budgets map[string]*budget                `json:"budgets,omitempty"`
	Summary map[string]map[string]metricValue `json:"summary"`
	Correct bool                              `json:"correct"`
}

type resultMeta struct {
	Seed       int64              `json:"seed"`
	WindowS    float64            `json:"window_s"`
	WarmupS    float64            `json:"warmup_s"`
	TraceCapS  float64            `json:"trace_cap_s"`
	CPUs       int                `json:"cpus"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Platform   string             `json:"platform"`
	Date       string             `json:"date"`
	Workloads  map[string]wlMeta  `json:"workloads"`
	Bounds     map[string]float64 `json:"bounds,omitempty"`
}

type wlMeta struct {
	N       int      `json:"n"`
	D       int      `json:"d"`
	Clients int      `json:"clients"`
	Flags   []string `json:"hosserve_flags"`
	Why     string   `json:"why"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line the benchmark prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collect reads defs out of values, failing on a metric that was not
// measured (missing or non-finite).
func collect(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := map[string]metricValue{}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

func printE2E(out io.Writer, w *workload, run int, r *e2eResult) {
	fmt.Fprintf(out, "== %s (run %d): %d requests, %d failed\n", w.name, run+1, r.Attempted, r.Failed)
	for _, g := range glossary {
		v, ok := r.Report[g.name]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "  %-18s %12.4f %s", g.name, v, g.unit)
		if g.op != "" {
			fmt.Fprintf(out, "  (n=%d)", r.Ops[g.op].N)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "  -- benchmark metrics (req_* = %s)\n", w.primary())
	for _, d := range endToEnd {
		fmt.Fprintf(out, "  %-18s %12.4f %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(out, "  error: %s\n", e)
	}
}

func printTraced(out io.Writer, w *workload, t *tracedResult) {
	fmt.Fprintf(out, "== %s traced pass: %d requests\n", w.name, t.Requests)
	for _, d := range perLayer {
		fmt.Fprintf(out, "  %-31s %14.4f %s\n", d.Name, t.Metrics[d.Name], d.Unit)
	}
}

// budget sets the traced decomposition of the primary request against
// the untraced req_p50_ms and shows what the layers do not explain.
type budget struct {
	RefMs float64     `json:"req_p50_ms"`
	Rows  []budgetRow `json:"rows"`
	SumMs float64     `json:"layers_ms"`
	GapMs float64     `json:"unexplained_ms"`
}

func makeBudget(refMs float64, rows []budgetRow) *budget {
	b := &budget{RefMs: refMs, Rows: rows}
	for _, r := range rows {
		b.SumMs += r.Ms
	}
	b.GapMs = refMs - b.SumMs
	return b
}

func printBudget(out io.Writer, name string, b *budget) {
	fmt.Fprintf(out, "== %s layer budget vs untraced req_p50_ms = %.4f ms\n", name, b.RefMs)
	for _, r := range append(b.Rows, budgetRow{"unexplained gap", b.GapMs}) {
		fmt.Fprintf(out, "  %-18s %10.4f ms %7.1f%%\n", r.Layer, r.Ms, 100*r.Ms/b.RefMs)
	}
}
