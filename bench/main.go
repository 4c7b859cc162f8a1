// Command bench is the end-to-end benchmark of hosserve: it writes each
// workload's dataset, draws the request sequences from -seed, boots
// hosserve as a child process, drives it over loopback TCP with a
// closed loop of at most two connections, checks every answer it can
// against an in-process oracle, and prints the end-to-end metrics.
// A separate traced pass replays the same sequence against an
// in-process server and times the calls into each layer from outside,
// giving per-layer metrics and a layer budget. See README.md.
//
// Usage (from the repository root):
//
//	bash bench/run.sh                                # all workloads, both passes
//	bash bench/run.sh -runs 3 -out bench/out/a.json  # repeat and record
//	bash bench/run.sh -compare base.json head.json   # verdict per metric
//
// A benchmark runner driving BENCHMARK.json's command appends
// -workload <name> -seed <n> -seconds <s> -trace <0|1> to every run: one
// workload, and either its untraced run (the end-to-end metrics) or its
// traced pass (the per-layer metrics). The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}, its
// metric names prefixed with "<workload>." when more than one ran.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// defaultSeconds is the measured window of a run, run_seconds in
// BENCHMARK.json; traceCap bounds a traced pass (with traceMaxRequests).
const (
	defaultSeconds = 10
	traceCap       = 10 * time.Second
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "all", "workload to run: hot_lookup|cold_query|batch_scoring|live_ingest|all")
	seed := fs.Int64("seed", 1, "seed of the request sequences and fresh rows")
	seconds := fs.Int("seconds", defaultSeconds, "measured window per run, in seconds")
	trace := fs.Int("trace", -1, "0: untraced end-to-end run only; 1: traced per-layer pass only; -1: both, with the layer budget")
	runs := fs.Int("runs", 1, "repeat the untraced run this many times and record every run")
	out := fs.String("out", "", "result file (default <root>/bench/out/result.json)")
	compare := fs.Bool("compare", false, "compare two result files: -compare base.json head.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files: base.json head.json")
			return 2
		}
		if err := compareFiles(root, fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || *runs < 1 || *trace < -1 || *trace > 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: need -seconds ≥ 1, -runs ≥ 1, -trace in {-1,0,1} and no positional arguments")
		return 2
	}
	sel := workloads
	if *workloadName != "all" {
		w, err := workloadByName(*workloadName)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		sel = []*workload{w}
	}
	if *out == "" {
		*out = filepath.Join(root, "bench", "out", "result.json")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code, err := bench(ctx, root, sel, *seed, time.Duration(*seconds)*time.Second, *trace, *runs, *out, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		if errors.Is(err, context.Canceled) {
			return 130
		}
		return 1
	}
	return code
}

// findRoot returns the nearest directory at or above the working
// directory that holds cmd/hosserve: the repository root.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for d := wd; ; d = filepath.Dir(d) {
		if st, err := os.Stat(filepath.Join(d, "cmd", "hosserve")); err == nil && st.IsDir() {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return "", fmt.Errorf("no repository root (a directory with cmd/hosserve) at or above %s", wd)
		}
	}
}

// bench runs the selected workloads and reports. It returns the exit
// code once a result was printed, or an error when none could be.
func bench(ctx context.Context, root string, sel []*workload, seed int64, measure time.Duration, trace, runs int, out string, stdout io.Writer) (int, error) {
	buildDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return 0, err
	}
	work, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(work)
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return 0, err
	}
	doc := &resultDoc{Meta: meta(root, sel, seed, measure), Summary: map[string]map[string]metricValue{}}
	for _, w := range sel {
		doc.Summary[w.name] = map[string]metricValue{}
	}
	line := resultLine{Metrics: map[string]metricValue{}}
	var errs []string

	if trace != 1 {
		hosserve, err := buildHosserve(ctx, root, filepath.Join(buildDir, "bin"))
		if err != nil {
			return 0, err
		}
		for r := range runs {
			results := map[string]*e2eResult{}
			for _, w := range sel {
				res, err := runE2E(ctx, hosserve, work, w, seed, measure)
				if err != nil {
					return 0, fmt.Errorf("%s: %w", w.name, err)
				}
				printE2E(stdout, w, r, res)
				results[w.name] = res
				line.Attempted += res.Attempted
				line.Failed += res.Failed
				errs = append(errs, res.Errors...)
			}
			doc.Runs = append(doc.Runs, results)
		}
		for _, w := range sel {
			med := map[string]float64{}
			for _, d := range endToEnd {
				var vs []float64
				for _, r := range doc.Runs {
					vs = append(vs, r[w.name].Metrics[d.Name])
				}
				med[d.Name] = median(vs)
			}
			m, err := collect(endToEnd, med)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", w.name, err)
			}
			maps.Copy(doc.Summary[w.name], m)
		}
	}
	if trace != 0 {
		doc.Traced, doc.Budgets = map[string]*tracedResult{}, map[string]*budget{}
		for _, w := range sel {
			in, err := makeInputs(w, w.n, seed)
			if err != nil {
				return 0, err
			}
			spans := filepath.Join(filepath.Dir(out), w.name+".spans.jsonl")
			tr, f, err := runTraced(ctx, w, in, seed, min(measure, traceCap), work, spans)
			if err != nil {
				return 0, fmt.Errorf("%s traced pass: %w", w.name, err)
			}
			printTraced(stdout, w, tr)
			m, err := collect(perLayer, tr.Metrics)
			if err != nil {
				return 0, fmt.Errorf("%s traced pass: %w", w.name, err)
			}
			doc.Traced[w.name] = tr
			line.Attempted += f.attempted
			line.Failed += f.failed
			errs = append(errs, f.first...)
			// The budget needs the untraced p50 of this invocation.
			if ref, ok := doc.Summary[w.name]["req_p50_ms"]; ok {
				doc.Budgets[w.name] = makeBudget(ref.Value, tr.Components)
				printBudget(stdout, w.name, doc.Budgets[w.name])
			}
			maps.Copy(doc.Summary[w.name], m)
		}
	}

	for _, e := range errs {
		fmt.Fprintln(stdout, "error:", e)
	}
	line.Correct = line.Failed == 0 && line.Attempted > 0
	doc.Correct = line.Correct
	for name, m := range doc.Summary {
		for k, v := range m {
			if len(sel) == 1 {
				line.Metrics[k] = v
			} else {
				line.Metrics[name+"."+k] = v
			}
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return 0, err
	}
	fmt.Fprintf(stdout, "wrote %s\n", out)
	enc, err := json.Marshal(line)
	if err != nil {
		return 0, err
	}
	fmt.Fprintln(stdout, string(enc))
	if !line.Correct {
		return 1, nil
	}
	return 0, nil
}

// meta records the conditions a result was measured under.
func meta(root string, sel []*workload, seed int64, measure time.Duration) resultMeta {
	m := resultMeta{
		Seed: seed, WindowS: measure.Seconds(), WarmupS: warmupFor(measure).Seconds(),
		TraceCapS: min(measure, traceCap).Seconds(),
		CPUs:      runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
		Date:      time.Now().UTC().Format(time.RFC3339),
		Workloads: map[string]wlMeta{},
	}
	for _, w := range sel {
		m.Workloads[w.name] = wlMeta{N: w.n, D: w.d, Clients: w.clients(), Flags: w.serveArgs("<csv>", "<dir>"), Why: w.why}
	}
	if b, err := readBenchmarkFile(root); err == nil {
		m.Bounds = map[string]float64{}
		for _, d := range b.EndToEnd {
			m.Bounds[d.Name] = d.Bound
		}
	}
	return m
}
