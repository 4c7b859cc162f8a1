package shard

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/subspace"
	"repro/internal/vector"
)

func appendRows(t *testing.T, ds *vector.Dataset, rows [][]float64) *vector.Dataset {
	t.Helper()
	out, err := ds.Append(rows...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func randRows(rng *rand.Rand, n, d int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64() * 5
		}
		rows[i] = row
	}
	return rows
}

// engineEqual asserts ne is indistinguishable from a fresh
// NewEngine over the same dataset/config: partition maps, shard sizes,
// encoded indexes and answers all match.
func engineEqual(t *testing.T, ne, fresh *Engine) {
	t.Helper()
	if !reflect.DeepEqual(ne.shardOf, fresh.shardOf) {
		t.Fatal("shardOf maps differ")
	}
	if !reflect.DeepEqual(ne.localOf, fresh.localOf) {
		t.Fatal("localOf maps differ")
	}
	if !reflect.DeepEqual(ne.ShardSizes(), fresh.ShardSizes()) {
		t.Fatal("shard sizes differ")
	}
	for s := range ne.parts {
		if !reflect.DeepEqual(ne.parts[s].index.ds.Slab(), fresh.parts[s].index.ds.Slab()) {
			t.Fatalf("shard %d: sub-dataset slabs differ", s)
		}
		if !reflect.DeepEqual(ne.parts[s].global, fresh.parts[s].global) {
			t.Fatalf("shard %d: global maps differ", s)
		}
	}
	et1, err := ne.EncodedTrees()
	if err != nil {
		t.Fatal(err)
	}
	et2, err := fresh.EncodedTrees()
	if err != nil {
		t.Fatal(err)
	}
	if len(et1) != len(et2) {
		t.Fatalf("encoded tree counts differ: %d vs %d", len(et1), len(et2))
	}
	for s := range et1 {
		if !bytes.Equal(et1[s], et2[s]) {
			t.Fatalf("shard %d: encoded trees differ (%d vs %d bytes)", s, len(et1[s]), len(et2[s]))
		}
	}
	s1, err := ne.NewSearcher()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := fresh.NewSearcher()
	if err != nil {
		t.Fatal(err)
	}
	full := subspace.Full(ne.ds.Dim())
	for q := 0; q < ne.ds.N(); q += 17 {
		a := append([]float64(nil), ne.ds.Point(q)...)
		n1 := s1.KNN(a, full, 5, q)
		got := make([]int, len(n1))
		for i, nb := range n1 {
			got[i] = nb.Index
		}
		n2 := s2.KNN(a, full, 5, q)
		want := make([]int, len(n2))
		for i, nb := range n2 {
			want[i] = nb.Index
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: appended engine answers %v, fresh %v", q, got, want)
		}
	}
}

// TestEngineAppendEqualsNewEngine: appending through the engine is
// indistinguishable from repartitioning the grown dataset from
// scratch, across partitioners, index kinds and widths.
func TestEngineAppendEqualsNewEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const d = 4
	base := randRows(rng, 240, d)
	extra := randRows(rng, 60, d)
	ds0, err := vector.FromRows(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range []Partitioner{RoundRobin, HashPoint} {
		for _, kind := range []IndexKind{IndexLinear, IndexXTree} {
			for _, shards := range []int{1, 2, 7} {
				cfg := Config{Shards: shards, Partitioner: part, Metric: vector.L2, Index: kind}
				e, err := NewEngine(ds0, cfg)
				if err != nil {
					t.Fatal(err)
				}
				// Two batches: 1 row, then the rest.
				ds1 := appendRows(t, ds0, extra[:1])
				e1, err := e.Append(ds1)
				if err != nil {
					t.Fatal(err)
				}
				ds2 := appendRows(t, ds1, extra[1:])
				e2, err := e1.Append(ds2)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := NewEngine(ds2, cfg)
				if err != nil {
					t.Fatal(err)
				}
				engineEqual(t, e2, fresh)
			}
		}
	}
}

// TestEngineAppendCrossesAutoThreshold: a linear IndexAuto shard that
// grows past AutoXTreeThreshold gets an X-tree, matching NewEngine.
func TestEngineAppendCrossesAutoThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const d = 3
	// 2 shards roundrobin: 500 rows each → linear under IndexAuto.
	base := randRows(rng, 1000, d)
	ds0, err := vector.FromRows(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Shards: 2, Partitioner: RoundRobin, Metric: vector.L2, Index: IndexAuto}
	e, err := NewEngine(ds0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s, p := range e.parts {
		if p.index.tree != nil {
			t.Fatalf("shard %d unexpectedly has a tree before append", s)
		}
	}
	// +60 rows → 530 per shard, past the 512 threshold.
	ds1 := appendRows(t, ds0, randRows(rng, 60, d))
	e1, err := e.Append(ds1)
	if err != nil {
		t.Fatal(err)
	}
	for s, p := range e1.parts {
		if p.index.tree == nil {
			t.Fatalf("shard %d missing its tree after crossing the auto threshold", s)
		}
	}
	fresh, err := NewEngine(ds1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	engineEqual(t, e1, fresh)
}

// TestEngineAppendSharesUntouchedShards: shards that receive no rows
// keep their exact partition (pointer identity), and the source engine
// is not mutated.
func TestEngineAppendSharesUntouchedShards(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const d = 3
	ds0, err := vector.FromRows(randRows(rng, 40, d))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Shards: 4, Partitioner: RoundRobin, Metric: vector.L2, Index: IndexLinear}
	e, err := NewEngine(ds0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	oldParts := append([]*partition(nil), e.parts...)
	oldSizes := e.ShardSizes()
	// One appended row at index 40 → roundrobin shard 0 only.
	ds1 := appendRows(t, ds0, randRows(rng, 1, d))
	e1, err := e.Append(ds1)
	if err != nil {
		t.Fatal(err)
	}
	if e1.parts[0] == oldParts[0] {
		t.Fatal("touched shard 0 was not rebuilt")
	}
	for s := 1; s < 4; s++ {
		if e1.parts[s] != oldParts[s] {
			t.Fatalf("untouched shard %d was rebuilt", s)
		}
	}
	if !reflect.DeepEqual(e.ShardSizes(), oldSizes) {
		t.Fatal("append mutated the source engine")
	}
}

// TestEngineAppendBatchEqualsChained: a group-commit drain — several
// queued row batches appended as one concatenated dataset and routed
// in one pass — matches both the chained per-batch appends and a
// fresh engine over the combined data.
func TestEngineAppendBatchEqualsChained(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const d = 4
	base := randRows(rng, 180, d)
	extra := randRows(rng, 45, d)
	ds0, err := vector.FromRows(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range []Partitioner{RoundRobin, HashPoint} {
		for _, shards := range []int{1, 2, 7} {
			cfg := Config{Shards: shards, Partitioner: part, Metric: vector.L2, Index: IndexXTree}
			e, err := NewEngine(ds0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			batched, err := e.Append(appendRows(t, ds0, extra))
			if err != nil {
				t.Fatal(err)
			}
			chained := e
			ds := ds0
			for _, chunk := range [][][]float64{extra[:1], extra[1:20], extra[20:]} {
				ds = appendRows(t, ds, chunk)
				chained, err = chained.Append(ds)
				if err != nil {
					t.Fatal(err)
				}
			}
			fresh, err := NewEngine(ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			engineEqual(t, batched, fresh)
			engineEqual(t, batched, chained)
		}
	}
}

// TestEngineAppendEmptyBatch: an append that adds no rows (the
// coalescer can drain into one after per-op validation rejects every
// queued request) is a clean no-op epoch — same answers, no error.
func TestEngineAppendEmptyBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const d = 3
	ds0, err := vector.FromRows(randRows(rng, 50, d))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Shards: 2, Partitioner: RoundRobin, Metric: vector.L2, Index: IndexXTree}
	e, err := NewEngine(ds0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same, err := e.Append(ds0)
	if err != nil {
		t.Fatalf("no-op append rejected: %v", err)
	}
	engineEqual(t, same, e)
	viaBatch, err := e.Append(appendRows(t, ds0, nil))
	if err != nil {
		t.Fatalf("empty batch append rejected: %v", err)
	}
	engineEqual(t, viaBatch, e)
}

// TestEngineAppendDimMismatchRows: a grown dataset whose rows are
// narrower or wider than the engine's surfaces as an error before any
// shard is touched, and the source engine keeps answering.
func TestEngineAppendDimMismatchRows(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	const d = 3
	ds0, err := vector.FromRows(randRows(rng, 30, d))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ds0, Config{Shards: 2, Metric: vector.L2})
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{d - 1, d + 1} {
		grown, err := vector.FromRows(randRows(rng, 32, width))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Append(grown); err == nil {
			t.Fatalf("rows of width %d accepted by a width-%d engine", width, d)
		}
	}
	// The source engine still answers correctly after the rejections.
	fresh, err := NewEngine(ds0, Config{Shards: 2, Metric: vector.L2})
	if err != nil {
		t.Fatal(err)
	}
	engineEqual(t, e, fresh)
}

// TestEngineAppendWidthOne: a width-1 engine (single shard holding
// everything) takes the same incremental path and matches a fresh
// single-shard engine — the degenerate partition is not special-cased
// anywhere.
func TestEngineAppendWidthOne(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const d = 4
	ds0, err := vector.FromRows(randRows(rng, 120, d))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []IndexKind{IndexLinear, IndexXTree} {
		cfg := Config{Shards: 1, Partitioner: HashPoint, Metric: vector.L2, Index: kind}
		e, err := NewEngine(ds0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ds1 := appendRows(t, ds0, randRows(rng, 15, d))
		e1, err := e.Append(ds1)
		if err != nil {
			t.Fatal(err)
		}
		if got := e1.ShardSizes(); len(got) != 1 || got[0] != 135 {
			t.Fatalf("width-1 shard sizes after append: %v", got)
		}
		fresh, err := NewEngine(ds1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		engineEqual(t, e1, fresh)
	}
}

// TestEngineAppendRejectsBadDatasets pins the contract errors.
func TestEngineAppendRejectsBadDatasets(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const d = 3
	ds0, err := vector.FromRows(randRows(rng, 30, d))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ds0, Config{Shards: 2, Metric: vector.L2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Append(nil); err == nil {
		t.Fatal("nil dataset accepted")
	}
	wrong, err := vector.FromRows(randRows(rng, 40, d+2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Append(wrong); err == nil {
		t.Fatal("wrong dimensionality accepted")
	}
	shrunk, err := vector.FromRows(randRows(rng, 10, d))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Append(shrunk); err == nil {
		t.Fatal("shrunk dataset accepted")
	}
	mut := make([][]float64, 30)
	for i := 0; i < 30; i++ {
		mut[i] = append([]float64(nil), ds0.Point(i)...)
	}
	mut[4][0] += 1
	mds, err := vector.FromRows(mut)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Append(mds); err == nil {
		t.Fatal("mutated prefix accepted")
	}
}
