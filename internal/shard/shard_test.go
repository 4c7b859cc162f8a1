package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/knn"
	"repro/internal/subspace"
	"repro/internal/vector"
)

// randomDataset builds a deterministic n×d dataset with a few
// duplicated rows so ties between equal distances actually occur.
func randomDataset(t testing.TB, n, d int, seed int64) *vector.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	flat := make([]float64, n*d)
	for i := range flat {
		flat[i] = rng.NormFloat64()
	}
	// Duplicate a couple of rows verbatim: distance ties force the
	// (dist, index) tie-break to matter.
	if n > 10 {
		copy(flat[3*d:4*d], flat[7*d:8*d])
		copy(flat[5*d:6*d], flat[9*d:10*d])
	}
	ds, err := vector.NewDataset(flat, n, d)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestPartitionerStringParseRoundTrip(t *testing.T) {
	for _, p := range []Partitioner{RoundRobin, HashPoint} {
		got, err := ParsePartitioner(p.String())
		if err != nil || got != p {
			t.Fatalf("round-trip %v: got %v, %v", p, got, err)
		}
		if !p.Valid() {
			t.Fatalf("%v should be valid", p)
		}
	}
	if _, err := ParsePartitioner("zigzag"); err == nil {
		t.Fatal("unknown partitioner accepted")
	}
	if _, err := ParsePartitioner("round-robin"); err != nil {
		t.Fatalf("hyphenated spelling rejected: %v", err)
	}
	if Partitioner(99).Valid() {
		t.Fatal("Partitioner(99) reported valid")
	}
	if s := Partitioner(99).String(); s != "Partitioner(99)" {
		t.Fatalf("String() = %q", s)
	}
}

func TestAssignDeterministicAndInRange(t *testing.T) {
	ds := randomDataset(t, 50, 4, 11)
	for _, p := range []Partitioner{RoundRobin, HashPoint} {
		for _, shards := range []int{1, 2, 3, 7} {
			for i := 0; i < ds.N(); i++ {
				a := p.Assign(i, ds.Point(i), shards)
				b := p.Assign(i, ds.Point(i), shards)
				if a != b {
					t.Fatalf("%v not deterministic: %d vs %d", p, a, b)
				}
				if a < 0 || a >= shards {
					t.Fatalf("%v assigned shard %d of %d", p, a, shards)
				}
			}
		}
	}
	// RoundRobin is exactly balanced.
	if got := RoundRobin.Assign(13, nil, 5); got != 3 {
		t.Fatalf("roundrobin(13, 5 shards) = %d", got)
	}
	// HashPoint depends on values, not position.
	p := []float64{1.5, -2.25}
	if HashPoint.Assign(0, p, 8) != HashPoint.Assign(42, p, 8) {
		t.Fatal("hash partitioner should ignore the row index")
	}
}

func TestNewEngineValidation(t *testing.T) {
	ds := randomDataset(t, 20, 3, 1)
	cases := []Config{
		{Shards: 0, Metric: vector.L2},
		{Shards: 21, Metric: vector.L2},
		{Shards: 2, Metric: vector.Metric(99)},
		{Shards: 2, Metric: vector.L2, Partitioner: Partitioner(99)},
		{Shards: 2, Metric: vector.L2, Index: IndexKind(99)},
	}
	for i, cfg := range cases {
		if _, err := NewEngine(ds, cfg); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, cfg)
		}
	}
	if _, err := NewEngine(nil, Config{Shards: 1, Metric: vector.L2}); err == nil {
		t.Fatal("nil dataset accepted")
	}
}

func TestEnginePartitionCoversDataset(t *testing.T) {
	ds := randomDataset(t, 57, 4, 7)
	for _, part := range []Partitioner{RoundRobin, HashPoint} {
		e, err := NewEngine(ds, Config{Shards: 5, Partitioner: part, Metric: vector.L2})
		if err != nil {
			t.Fatal(err)
		}
		if e.NumShards() != 5 {
			t.Fatalf("NumShards = %d", e.NumShards())
		}
		total := 0
		for _, n := range e.ShardSizes() {
			total += n
		}
		if total != ds.N() {
			t.Fatalf("%v: shard sizes sum to %d, want %d", part, total, ds.N())
		}
		// Row round-trip: every global row is stored verbatim in its shard.
		for i := 0; i < ds.N(); i++ {
			s := e.ShardOf(i)
			local := int(e.localOf[i])
			got := e.parts[s].index.ds.Point(local)
			if !reflect.DeepEqual(got, ds.Point(i)) {
				t.Fatalf("row %d corrupted in shard %d", i, s)
			}
			if e.parts[s].global[local] != i {
				t.Fatalf("row %d: local→global mapping broken", i)
			}
		}
		if e.Config().Partitioner != part {
			t.Fatalf("Config() lost the partitioner")
		}
	}
}

// TestScatterGatherMatchesSingleIndex is the package-level exactness
// guarantee: the merged sharded answer is identical (indices AND float
// distances) to a single linear index over the whole dataset.
func TestScatterGatherMatchesSingleIndex(t *testing.T) {
	ds := randomDataset(t, 160, 5, 42)
	oracle, err := knn.NewLinear(ds, vector.L2)
	if err != nil {
		t.Fatal(err)
	}
	masks := []subspace.Mask{
		subspace.New(0), subspace.New(1, 3), subspace.New(0, 2, 4), subspace.Full(5),
	}
	for _, part := range []Partitioner{RoundRobin, HashPoint} {
		for _, shards := range []int{1, 2, 4, 7} {
			for _, kind := range []IndexKind{IndexLinear, IndexXTree, IndexAuto} {
				e, err := NewEngine(ds, Config{
					Shards: shards, Partitioner: part, Metric: vector.L2, Index: kind,
				})
				if err != nil {
					t.Fatal(err)
				}
				s, err := e.NewSearcher()
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range masks {
					for _, k := range []int{1, 3, 8} {
						for _, exclude := range []int{-1, 0, 63, 159} {
							got := s.KNN(ds.Point(10), m, k, exclude)
							want := oracle.KNN(ds.Point(10), m, k, exclude)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%v/%d shards/%v k=%d excl=%d mask=%v:\n got %v\nwant %v",
									part, shards, kind, k, exclude, m, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestScatterGatherParallelPath forces the goroutine fan-out (skipped
// on single-core boxes by a fast path) and checks it yields the same
// bytes as the oracle — also the test that puts the fan-out under the
// race detector.
func TestScatterGatherParallelPath(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	ds := randomDataset(t, 120, 4, 21)
	oracle, _ := knn.NewLinear(ds, vector.L2)
	e, err := NewEngine(ds, Config{Shards: 5, Partitioner: HashPoint, Metric: vector.L2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.NewSearcher()
	if err != nil {
		t.Fatal(err)
	}
	m := subspace.New(0, 2)
	for i := 0; i < ds.N(); i += 7 {
		got := s.KNN(ds.Point(i), m, 5, i)
		want := oracle.KNN(ds.Point(i), m, 5, i)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("point %d: parallel path diverged:\n got %v\nwant %v", i, got, want)
		}
	}
}

// TestScatterGatherKOverShardSize covers the regime where k exceeds a
// shard's population, so shards contribute short partials.
func TestScatterGatherKOverShardSize(t *testing.T) {
	ds := randomDataset(t, 15, 3, 5)
	oracle, _ := knn.NewLinear(ds, vector.L2)
	e, err := NewEngine(ds, Config{Shards: 7, Partitioner: RoundRobin, Metric: vector.L2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.NewSearcher()
	if err != nil {
		t.Fatal(err)
	}
	m := subspace.Full(3)
	got := s.KNN(ds.Point(0), m, 10, 0)
	want := oracle.KNN(ds.Point(0), m, 10, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("k over shard size:\n got %v\nwant %v", got, want)
	}
}

func TestSearcherEdgeCases(t *testing.T) {
	ds := randomDataset(t, 20, 3, 3)
	e, err := NewEngine(ds, Config{Shards: 4, Metric: vector.L2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.NewSearcher()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.KNN(ds.Point(0), subspace.Full(3), 0, -1); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
	var empty subspace.Mask
	if got := s.KNN(ds.Point(0), empty, 3, -1); got != nil {
		t.Fatalf("empty mask returned %v", got)
	}
}

func TestStatsAggregation(t *testing.T) {
	ds := randomDataset(t, 40, 3, 9)
	e, err := NewEngine(ds, Config{Shards: 4, Metric: vector.L2, Index: IndexLinear})
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.NewSearcher()
	if err != nil {
		t.Fatal(err)
	}
	const probes = 6
	for i := 0; i < probes; i++ {
		s.KNN(ds.Point(i), subspace.Full(3), 3, i)
	}
	st := s.Stats()
	if st.Queries != probes {
		t.Fatalf("Queries = %d, want %d", st.Queries, probes)
	}
	// Each probe examines all other points exactly once across shards.
	if want := int64(probes * (ds.N() - 1)); st.PointsExamined != want {
		t.Fatalf("PointsExamined = %d, want %d", st.PointsExamined, want)
	}
	// The engine-level per-shard counters see the same work.
	var engineTotal int64
	perShard := e.ShardStats()
	if len(perShard) != 4 {
		t.Fatalf("ShardStats length %d", len(perShard))
	}
	for _, ss := range perShard {
		engineTotal += ss.PointsExamined
		if ss.Queries != probes {
			t.Fatalf("per-shard Queries = %d, want %d", ss.Queries, probes)
		}
	}
	if engineTotal != st.PointsExamined {
		t.Fatalf("engine counters %d != searcher counters %d", engineTotal, st.PointsExamined)
	}
	s.ResetStats()
	if st := s.Stats(); st.Queries != 0 || st.PointsExamined != 0 {
		t.Fatalf("ResetStats left %+v", st)
	}
}

// The order-independence property of Merge (any permutation of the
// partials and their contents yields the same answer) is pinned down
// by TestShardMergeOrderIndependent in internal/conformance, next to
// the engine-level differential specs; here only the contract order
// of the output is asserted directly.
func TestMergeRespectsContractOrder(t *testing.T) {
	got := Merge(3,
		[]knn.Neighbor{{Index: 5, Dist: 1}, {Index: 9, Dist: 2}},
		[]knn.Neighbor{{Index: 2, Dist: 1}, {Index: 7, Dist: 0.5}},
	)
	want := []knn.Neighbor{{Index: 7, Dist: 0.5}, {Index: 2, Dist: 1}, {Index: 5, Dist: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// BenchmarkShardedQuery measures scatter-gather k-NN throughput by
// shard count over one dataset; the BENCH_n.json reports record the
// 4-shard over 1-shard speedup (tools/benchjson computes it from these timings).
func BenchmarkShardedQuery(b *testing.B) {
	ds := randomDataset(b, 8192, 8, 1)
	full := subspace.Full(8)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e, err := NewEngine(ds, Config{Shards: shards, Metric: vector.L2, Index: IndexLinear})
			if err != nil {
				b.Fatal(err)
			}
			s, err := e.NewSearcher()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.KNN(ds.Point(i%ds.N()), full, 8, i%ds.N())
			}
		})
	}
}

// TestEncodedTreesRoundTrip: an engine rebuilt from EncodedTrees must
// answer scatter-gather probes identically to the original, and shape
// mismatches between the encoded set and the configuration must fail.
func TestEncodedTreesRoundTrip(t *testing.T) {
	ds := randomDataset(t, 1200, 4, 17) // > AutoXTreeThreshold per shard at width 2
	cfg := Config{Shards: 2, Partitioner: HashPoint, Metric: vector.L2, Index: IndexAuto}
	fresh, err := NewEngine(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := fresh.EncodedTrees()
	if err != nil {
		t.Fatal(err)
	}
	hasTree := false
	for _, b := range encoded {
		if len(b) > 0 {
			hasTree = true
		}
	}
	if !hasTree {
		t.Fatal("no shard produced an encoded tree; fixture too small")
	}
	warm, err := NewEngineFromEncoded(ds, cfg, encoded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.ShardSizes(), fresh.ShardSizes()) {
		t.Fatalf("shard sizes diverge: %v vs %v", warm.ShardSizes(), fresh.ShardSizes())
	}
	sa, err := fresh.NewSearcher()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := warm.NewSearcher()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for q := 0; q < 30; q++ {
		query := make([]float64, 4)
		for j := range query {
			query[j] = rng.NormFloat64()
		}
		sub := subspace.Mask(rng.Intn(15) + 1)
		k := 1 + rng.Intn(8)
		want := sa.KNN(query, sub, k, -1)
		got := sb.KNN(query, sub, k, -1)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("probe %d diverged:\n want %v\n got  %v", q, want, got)
		}
	}

	// Shape mismatches: wrong width, tree where none belongs, missing
	// tree where one belongs.
	if _, err := NewEngineFromEncoded(ds, cfg, encoded[:1]); err == nil {
		t.Fatal("width mismatch accepted")
	}
	linCfg := cfg
	linCfg.Index = IndexLinear
	if _, err := NewEngineFromEncoded(ds, linCfg, encoded); err == nil {
		t.Fatal("trees accepted for a linear configuration")
	}
	empty := make([][]byte, cfg.Shards)
	if _, err := NewEngineFromEncoded(ds, cfg, empty); err == nil {
		t.Fatal("missing trees accepted for a tree configuration")
	}
	// Trees built under another metric must not serve this one.
	l1Cfg := cfg
	l1Cfg.Metric = vector.L1
	if _, err := NewEngineFromEncoded(ds, l1Cfg, encoded); err == nil {
		t.Fatal("L2 trees accepted for an L1 configuration")
	}
	// Corrupt bytes must be rejected by the decoder.
	bad := make([][]byte, len(encoded))
	for i, b := range encoded {
		bad[i] = append([]byte(nil), b...)
	}
	for i := range bad {
		if len(bad[i]) > 0 {
			bad[i][len(bad[i])/3] ^= 0x55
		}
	}
	if _, err := NewEngineFromEncoded(ds, cfg, bad); err == nil {
		t.Fatal("corrupt tree bytes accepted")
	}
	// Linear configurations round-trip through an all-nil encoded set.
	linFresh, err := NewEngine(ds, linCfg)
	if err != nil {
		t.Fatal(err)
	}
	linEnc, err := linFresh.EncodedTrees()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngineFromEncoded(ds, linCfg, linEnc); err != nil {
		t.Fatalf("linear round-trip failed: %v", err)
	}
}
