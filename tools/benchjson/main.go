// Command benchjson converts `go test -bench` text output into the
// machine-readable BENCH_<n>.json trajectory record CI uploads as an
// artifact — ns/op, B/op, allocs/op and any custom b.ReportMetric
// units per benchmark, plus derived shard-scaling ratios from
// BenchmarkShardedQuery and append-throughput amortization from
// BenchmarkAppendThroughput.
//
// Usage:
//
//	go test -bench=. -benchmem ./... | go run ./tools/benchjson -out BENCH_9.fresh.json
//	go run ./tools/benchjson -in bench.txt -out BENCH_9.fresh.json
//	go run ./tools/benchjson -in bench.txt -gate BENCH_9.json -min-shard-speedup 1.5
//
// The converter is line-oriented and permissive: non-benchmark lines
// (package headers, PASS/ok, warnings) are skipped, so piping the
// whole `go test` stream in is fine.
//
// With -gate, benchjson is CI's bench-regression gate: it compares
// the fresh run against the committed previous BENCH_<n>.json and
// exits non-zero on a >tolerance regression. allocs/op is always
// gated (it is hardware-independent); ns/op only when both runs saw
// the same CPU count; the shard-speedup floor only on multi-CPU runs
// (scatter-gather cannot beat a single index on one core).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the full benchmark name including sub-benchmark path and
	// the -GOMAXPROCS suffix, e.g. "BenchmarkShardedQuery/shards=4-8".
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp/AllocsPerOp are -1 when the run lacked -benchmem.
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Metrics carries custom b.ReportMetric units ("rows/s",
	// "fsyncs/row", …) keyed by unit; nil when the line had none.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the BENCH_<n>.json schema.
type Report struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	CPUs        int    `json:"cpus"`
	// CISingleCPU marks reports produced on a one-core runner: timing
	// comparisons against them are meaningful, parallel-scaling
	// assertions are not.
	CISingleCPU bool        `json:"ci_single_cpu,omitempty"`
	Benchmarks  []Benchmark `json:"benchmarks"`
	// ShardSpeedup maps "<n>x" to ns/op(shards=1) / ns/op(shards=n)
	// from BenchmarkShardedQuery — the scatter-gather scaling record
	// (> 1 means n shards beat one). Empty when the input lacks the
	// benchmark.
	ShardSpeedup map[string]float64 `json:"shard_speedup,omitempty"`
	// AppendRowsPerSec maps "batch=<n>" to the rows/s metric from
	// BenchmarkAppendThroughput — the append lane's amortization
	// record. AppendFsyncsPerRow is its fsyncs/row twin. Empty when
	// the input lacks the benchmark.
	AppendRowsPerSec   map[string]float64 `json:"append_rows_per_sec,omitempty"`
	AppendFsyncsPerRow map[string]float64 `json:"append_fsyncs_per_row,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// run is the testable entry point.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		inPath    = fs.String("in", "", "bench output file (default: stdin)")
		outPath   = fs.String("out", "", "JSON destination (default: stdout)")
		gatePath  = fs.String("gate", "", "previous BENCH_<n>.json to gate the fresh run against; a regression fails the command")
		tolerance = fs.Float64("tolerance", 0.10, "with -gate: allowed fractional regression in ns/op and allocs/op")
		minShard  = fs.Float64("min-shard-speedup", 0, "with -gate: required 4x shard speedup on multi-CPU runs (0 disables)")
		minAmort  = fs.Float64("min-append-amortization", 0, "with -gate: required batch=256 over batch=1 append row-throughput ratio, plus < 1 fsync/row at batch=256 (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	in := stdin
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	benches, err := Parse(in)
	if err != nil {
		return err
	}
	if len(benches) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	rows, fsyncs := AppendThroughput(benches)
	rep := &Report{
		GeneratedAt:        time.Now().UTC().Format(time.RFC3339),
		GoVersion:          runtime.Version(),
		CPUs:               runtime.NumCPU(),
		CISingleCPU:        runtime.NumCPU() == 1,
		Benchmarks:         benches,
		ShardSpeedup:       ShardSpeedups(benches),
		AppendRowsPerSec:   rows,
		AppendFsyncsPerRow: fsyncs,
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	// Write the artifact before gating: a failed gate should still
	// leave the fresh numbers on disk for the trajectory record.
	if *outPath != "" {
		if err := os.WriteFile(*outPath, buf, 0o644); err != nil {
			return err
		}
	} else if *gatePath == "" {
		if _, err := stdout.Write(buf); err != nil {
			return err
		}
	}
	if *gatePath != "" {
		prevBuf, err := os.ReadFile(*gatePath)
		if err != nil {
			return err
		}
		var prev Report
		if err := json.Unmarshal(prevBuf, &prev); err != nil {
			return fmt.Errorf("%s: %w", *gatePath, err)
		}
		violations := Gate(&prev, rep, *tolerance, *minShard, *minAmort, stdout)
		if len(violations) > 0 {
			return fmt.Errorf("bench gate failed: %d regression(s) vs %s", len(violations), *gatePath)
		}
	}
	return nil
}

// baseName strips the trailing -<GOMAXPROCS> suffix go test appends
// to benchmark names, so runs from machines with different core
// counts compare by the same key.
func baseName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// Gate compares the fresh report against the committed previous one
// and returns the violations (empty = pass), logging each comparison
// to out. Policy:
//
//   - allocs/op is gated unconditionally — allocation counts are
//     deterministic and hardware-independent. A zero baseline admits
//     zero: the hot path's zero-allocation contract, once recorded,
//     cannot silently erode.
//   - ns/op is gated only when both runs saw the same CPU count;
//     wall-clock across different machines is noise, not signal.
//   - the shard-speedup floor applies only on multi-CPU runs — on a
//     single core scatter-gather is pure overhead by construction,
//     which is exactly what ci_single_cpu records.
//   - the append-amortization floor is a within-run ratio (batch=256
//     rows/s over batch=1 rows/s) plus an absolute fsyncs/row ceiling,
//     both hardware-independent, so it applies whenever the input
//     carries BenchmarkAppendThroughput.
func Gate(prev, cur *Report, tolerance, minShardSpeedup, minAppendAmortization float64, out io.Writer) []string {
	var violations []string
	fail := func(format string, a ...any) {
		v := fmt.Sprintf(format, a...)
		violations = append(violations, v)
		fmt.Fprintln(out, "FAIL", v)
	}
	prevBy := make(map[string]Benchmark, len(prev.Benchmarks))
	for _, b := range prev.Benchmarks {
		prevBy[baseName(b.Name)] = b
	}
	sameCPU := prev.CPUs == cur.CPUs
	if !sameCPU {
		fmt.Fprintf(out, "skip ns/op gate: previous run had %d CPUs, this one %d\n", prev.CPUs, cur.CPUs)
	}
	for _, b := range cur.Benchmarks {
		name := baseName(b.Name)
		pb, ok := prevBy[name]
		if !ok {
			fmt.Fprintf(out, "new benchmark %s: no baseline, skipped\n", name)
			continue
		}
		if pb.AllocsPerOp >= 0 && b.AllocsPerOp >= 0 {
			limit := float64(pb.AllocsPerOp) * (1 + tolerance)
			if float64(b.AllocsPerOp) > limit {
				fail("%s: allocs/op %d exceeds baseline %d by more than %.0f%%",
					name, b.AllocsPerOp, pb.AllocsPerOp, tolerance*100)
			} else {
				fmt.Fprintf(out, "ok   %s: allocs/op %d (baseline %d)\n", name, b.AllocsPerOp, pb.AllocsPerOp)
			}
		}
		if sameCPU && pb.NsPerOp > 0 && b.NsPerOp > pb.NsPerOp*(1+tolerance) {
			fail("%s: %.0f ns/op exceeds baseline %.0f by more than %.0f%%",
				name, b.NsPerOp, pb.NsPerOp, tolerance*100)
		}
	}
	if minShardSpeedup > 0 {
		switch {
		case cur.CPUs == 1:
			fmt.Fprintln(out, "skip shard-speedup floor: single-CPU run (ci_single_cpu)")
		case cur.ShardSpeedup["4x"] == 0:
			fmt.Fprintln(out, "skip shard-speedup floor: no BenchmarkShardedQuery/shards=4 in input")
		case cur.ShardSpeedup["4x"] < minShardSpeedup:
			fail("shard speedup 4x = %.2f, floor is %.2f", cur.ShardSpeedup["4x"], minShardSpeedup)
		default:
			fmt.Fprintf(out, "ok   shard speedup 4x = %.2f (floor %.2f)\n", cur.ShardSpeedup["4x"], minShardSpeedup)
		}
	}
	if minAppendAmortization > 0 {
		base, big := cur.AppendRowsPerSec["batch=1"], cur.AppendRowsPerSec["batch=256"]
		switch {
		case base == 0 || big == 0:
			fmt.Fprintln(out, "skip append-amortization floor: no BenchmarkAppendThroughput batch=1/batch=256 in input")
		case big < base*minAppendAmortization:
			fail("append amortization batch=256/batch=1 = %.2fx, floor is %.2fx", big/base, minAppendAmortization)
		default:
			fmt.Fprintf(out, "ok   append amortization batch=256/batch=1 = %.2fx (floor %.2fx)\n", big/base, minAppendAmortization)
		}
		if f, ok := cur.AppendFsyncsPerRow["batch=256"]; ok {
			if f >= 1 {
				fail("append batch=256 issued %.3f fsyncs/row; group commit requires < 1", f)
			} else {
				fmt.Fprintf(out, "ok   append batch=256 fsyncs/row = %.4f (< 1)\n", f)
			}
		}
	}
	return violations
}

// Parse extracts benchmark result lines from a `go test -bench`
// stream. A result line looks like:
//
//	BenchmarkName/sub=1-8   3721   97094 ns/op   552 B/op   10 allocs/op
func Parse(r io.Reader) ([]Benchmark, error) {
	var out []Benchmark
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: fields[0], Iterations: iters, BytesPerOp: -1, AllocsPerOp: -1}
		// Remaining fields come in (value, unit) pairs.
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			val := fields[i]
			switch fields[i+1] {
			case "ns/op":
				if b.NsPerOp, err = strconv.ParseFloat(val, 64); err == nil {
					ok = true
				}
			case "B/op":
				b.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
			case "allocs/op":
				b.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
			default:
				// Custom b.ReportMetric units ("rows/s", "fsyncs/row", …).
				if v, err := strconv.ParseFloat(val, 64); err == nil {
					if b.Metrics == nil {
						b.Metrics = map[string]float64{}
					}
					b.Metrics[fields[i+1]] = v
				}
			}
		}
		if ok {
			out = append(out, b)
		}
	}
	return out, sc.Err()
}

// AppendThroughput collects the rows/s and fsyncs/row metrics from
// BenchmarkAppendThroughput sub-benchmarks, keyed by their
// "batch=<n>" component (GOMAXPROCS suffix ignored). Either map is
// nil when the input lacks the metric.
func AppendThroughput(benches []Benchmark) (rows, fsyncs map[string]float64) {
	for _, b := range benches {
		if !strings.Contains(b.Name, "BenchmarkAppendThroughput/") {
			continue
		}
		i := strings.Index(b.Name, "batch=")
		if i < 0 {
			continue
		}
		key := b.Name[i:]
		if j := strings.IndexAny(key[len("batch="):], "-/"); j >= 0 {
			key = key[:len("batch=")+j]
		}
		if v, ok := b.Metrics["rows/s"]; ok {
			if rows == nil {
				rows = map[string]float64{}
			}
			rows[key] = v
		}
		if v, ok := b.Metrics["fsyncs/row"]; ok {
			if fsyncs == nil {
				fsyncs = map[string]float64{}
			}
			fsyncs[key] = v
		}
	}
	return rows, fsyncs
}

// ShardSpeedups derives ns/op(shards=1)/ns/op(shards=n) ratios from
// BenchmarkShardedQuery sub-benchmarks. Names are matched on their
// "/shards=<n>" component, ignoring the -GOMAXPROCS suffix.
func ShardSpeedups(benches []Benchmark) map[string]float64 {
	byShards := map[int]float64{}
	for _, b := range benches {
		if !strings.Contains(b.Name, "BenchmarkShardedQuery/") {
			continue
		}
		i := strings.Index(b.Name, "shards=")
		if i < 0 {
			continue
		}
		numStr := b.Name[i+len("shards="):]
		if j := strings.IndexAny(numStr, "-/"); j >= 0 {
			numStr = numStr[:j]
		}
		n, err := strconv.Atoi(numStr)
		if err != nil || b.NsPerOp <= 0 {
			continue
		}
		byShards[n] = b.NsPerOp
	}
	base, ok := byShards[1]
	if !ok {
		return nil
	}
	out := map[string]float64{}
	for n, ns := range byShards {
		if n == 1 {
			continue
		}
		out[fmt.Sprintf("%dx", n)] = base / ns
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
