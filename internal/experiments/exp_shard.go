package experiments

import (
	"time"

	"repro/internal/datagen"
	"repro/internal/shard"
	"repro/internal/subspace"
	"repro/internal/vector"
)

// SHShardScaling measures scatter-gather k-NN throughput against the
// shard count — the scaling axis behind `hosserve -shards` and the
// shard_speedup the BENCH_n.json reports record. Each row runs the same query stream
// through a shard.Engine of a different width and reports per-query
// latency, queries/sec and speedup over the 1-shard engine. On a
// single-core box speedup hovers near 1 (the fan-out is skipped);
// the interesting numbers come from multi-core CI runners.
//
// Shards defaults to {1, 2, 4} under Quick and {1, 2, 4, 8} under
// Full; hosbench -shards overrides it.
func (r *Runner) SHShardScaling() (*Table, error) {
	shardCounts := r.Shards
	if len(shardCounts) == 0 {
		shardCounts = pickInts(r.Scale, []int{1, 2, 4}, []int{1, 2, 4, 8})
	}
	n := pickInt(r.Scale, 2000, 16000)
	d := pickInt(r.Scale, 6, 8)
	queries := pickInt(r.Scale, 200, 1000)
	k := 5

	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{
		N: n, D: d, NumOutliers: 5, Seed: r.Seed,
	})
	if err != nil {
		return nil, err
	}
	full := subspace.Full(d)

	t := &Table{
		ID:    "SH",
		Title: "Sharded scatter-gather k-NN scaling (same query stream per row)",
		Header: []string{"shards", "partitioner", "us_per_query", "queries_per_sec",
			"speedup_vs_1", "points_examined"},
	}
	// Measure every width first, then emit: the speedup column anchors
	// to the shards=1 measurement wherever it sits in the sweep.
	type row struct {
		shards  int
		elapsed time.Duration
		points  int64
	}
	rows := make([]row, 0, len(shardCounts))
	for _, sc := range shardCounts {
		e, err := shard.NewEngine(ds, shard.Config{
			Shards: sc, Partitioner: shard.RoundRobin,
			Metric: vector.L2, Index: shard.IndexLinear,
		})
		if err != nil {
			return nil, err
		}
		s, err := e.NewSearcher()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for qi := 0; qi < queries; qi++ {
			idx := (qi * 17) % n
			s.KNN(ds.Point(idx), full, k, idx)
		}
		rows = append(rows, row{sc, time.Since(start), s.Stats().PointsExamined})
	}
	baseline := rows[0].elapsed
	for _, r := range rows {
		if r.shards == 1 {
			baseline = r.elapsed
			break
		}
	}
	for _, r := range rows {
		us := float64(r.elapsed.Microseconds()) / float64(queries)
		qps := float64(queries) / r.elapsed.Seconds()
		t.AddRow(r.shards, shard.RoundRobin.String(), us, qps,
			float64(baseline)/float64(r.elapsed), r.points)
	}
	t.Notes = append(t.Notes,
		"speedup_vs_1 is relative to the shards=1 row (first row when the sweep omits 1); expect ≥ 1.5x at 4 shards on a multi-core host",
		"answers are byte-identical across rows (internal/conformance asserts this)",
	)
	return t, nil
}
