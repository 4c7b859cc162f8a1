package server

import (
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/overload"
	"repro/internal/shard"
)

func TestListDatasetsStartsWithDefault(t *testing.T) {
	s := newTestServer(t, Options{})
	var resp listDatasetsResponse
	rec := do(t, s.Handler(), "GET", "/datasets", "", &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if len(resp.Datasets) != 1 || resp.Datasets[0].Name != DefaultDatasetName {
		t.Fatalf("datasets = %+v", resp.Datasets)
	}
	if !resp.Datasets[0].Default || resp.Datasets[0].Shards != 1 {
		t.Fatalf("default entry = %+v", resp.Datasets[0])
	}
	if resp.Capacity != 8 {
		t.Fatalf("capacity = %d, want default 8", resp.Capacity)
	}
}

func TestLoadQueryEvictDataset(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()

	body := `{"name":"synth2","gen":"synthetic","n":120,"d":4,"planted":3,"seed":7,
	          "k":4,"tq":0.9,"shards":3,"partitioner":"hash","backend":"linear"}`
	rec := do(t, h, "POST", "/datasets/load", body, nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("load status %d: %s", rec.Code, rec.Body.String())
	}

	// The loaded dataset answers queries routed by the dataset field,
	// identically to a directly built sharded miner.
	var resp queryResponse
	rec = do(t, h, "POST", "/query", `{"dataset":"synth2","index":5}`, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("routed query status %d: %s", rec.Code, rec.Body.String())
	}
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{N: 120, D: 4, NumOutliers: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMiner(ds, core.Config{
		K: 4, TQuantile: 0.9, Seed: 7, Shards: 3,
		Partitioner: shard.HashPoint, Backend: core.BackendLinear,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.OutlyingSubspacesOfPoint(5)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Threshold != want.Threshold || resp.IsOutlier != want.IsOutlierAnywhere {
		t.Fatalf("routed answer (T=%v outlier=%v) != library answer (T=%v outlier=%v)",
			resp.Threshold, resp.IsOutlier, want.Threshold, want.IsOutlierAnywhere)
	}

	// /scan and /batch route on the same field.
	var scanResp scanResponse
	rec = do(t, h, "POST", "/scan", `{"dataset":"synth2","max_results":5}`, &scanResp)
	if rec.Code != http.StatusOK {
		t.Fatalf("routed scan status %d: %s", rec.Code, rec.Body.String())
	}
	var batchResp batchResponse
	rec = do(t, h, "POST", "/batch", `{"dataset":"synth2","items":[{"index":1},{"index":2}]}`, &batchResp)
	if rec.Code != http.StatusOK || batchResp.Succeeded != 2 {
		t.Fatalf("routed batch status %d: %s", rec.Code, rec.Body.String())
	}

	// /stats carries the registry section with per-shard counters.
	var stats StatsSnapshot
	do(t, h, "GET", "/stats", "", &stats)
	if len(stats.Datasets) != 2 {
		t.Fatalf("stats datasets = %+v", stats.Datasets)
	}
	var loaded *DatasetStats
	for i := range stats.Datasets {
		if stats.Datasets[i].Name == "synth2" {
			loaded = &stats.Datasets[i]
		}
	}
	if loaded == nil || loaded.Shards != 3 || len(loaded.PerShard) != 3 {
		t.Fatalf("loaded dataset stats = %+v", loaded)
	}
	if loaded.Queries == 0 {
		t.Fatal("per-dataset query counter stayed zero")
	}
	var shardWork int64
	points := 0
	for _, ps := range loaded.PerShard {
		shardWork += ps.PointsExamined
		points += ps.Points
	}
	if shardWork == 0 || points != 120 {
		t.Fatalf("per-shard counters = %+v", loaded.PerShard)
	}

	// Evict, then routing must 404 and the registry shrink.
	rec = do(t, h, "POST", "/datasets/evict", `{"name":"synth2"}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("evict status %d: %s", rec.Code, rec.Body.String())
	}
	rec = do(t, h, "POST", "/query", `{"dataset":"synth2","index":5}`, nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("query after evict status %d", rec.Code)
	}
	var after listDatasetsResponse
	do(t, h, "GET", "/datasets", "", &after)
	if len(after.Datasets) != 1 {
		t.Fatalf("datasets after evict = %+v", after.Datasets)
	}
}

func TestLoadDatasetValidation(t *testing.T) {
	s := newTestServer(t, Options{MaxDatasets: 2})
	h := s.Handler()
	cases := []struct {
		name, body string
		status     int
	}{
		{"missing name", `{"gen":"synthetic","n":50,"d":3,"k":3,"tq":0.9}`, http.StatusBadRequest},
		{"reserved name", `{"name":"default","gen":"synthetic","n":50,"d":3,"k":3,"tq":0.9}`, http.StatusBadRequest},
		{"unknown generator", `{"name":"x","gen":"nope","n":50,"d":3,"k":3,"tq":0.9}`, http.StatusBadRequest},
		{"bad miner config", `{"name":"x","gen":"synthetic","n":50,"d":3,"k":0,"tq":0.9}`, http.StatusBadRequest},
		{"bad partitioner", `{"name":"x","gen":"synthetic","n":50,"d":3,"k":3,"tq":0.9,"partitioner":"zig"}`, http.StatusBadRequest},
		{"bad backend", `{"name":"x","gen":"synthetic","n":50,"d":3,"k":3,"tq":0.9,"backend":"zig"}`, http.StatusBadRequest},
		{"bad policy", `{"name":"x","gen":"synthetic","n":50,"d":3,"k":3,"tq":0.9,"policy":"zig"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if rec := do(t, h, "POST", "/datasets/load", c.body, nil); rec.Code != c.status {
			t.Errorf("%s: status %d, want %d (%s)", c.name, rec.Code, c.status, rec.Body.String())
		}
	}

	// Capacity: the default occupies one of the two slots.
	ok := `{"name":"one","gen":"synthetic","n":60,"d":3,"k":3,"tq":0.9}`
	if rec := do(t, h, "POST", "/datasets/load", ok, nil); rec.Code != http.StatusCreated {
		t.Fatalf("first load status %d", rec.Code)
	}
	dup := `{"name":"one","gen":"synthetic","n":60,"d":3,"k":3,"tq":0.9}`
	if rec := do(t, h, "POST", "/datasets/load", dup, nil); rec.Code != http.StatusConflict {
		t.Fatalf("duplicate load status %d", rec.Code)
	}
	full := `{"name":"two","gen":"synthetic","n":60,"d":3,"k":3,"tq":0.9}`
	if rec := do(t, h, "POST", "/datasets/load", full, nil); rec.Code != http.StatusConflict {
		t.Fatalf("over-capacity load status %d", rec.Code)
	}

	// Eviction guards.
	if rec := do(t, h, "POST", "/datasets/evict", `{"name":"default"}`, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("evicting default status %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/datasets/evict", `{"name":"ghost"}`, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("evicting unknown status %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/datasets/evict", `{}`, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("evicting empty name status %d", rec.Code)
	}
}

func TestLoadDatasetBounds(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	// Oversized generation requests are rejected before any allocation.
	over := `{"name":"big","gen":"uniform","n":100001,"d":3,"k":3,"t":1}`
	if rec := do(t, h, "POST", "/datasets/load", over, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized n status %d: %s", rec.Code, rec.Body.String())
	}
	wide := `{"name":"wide","gen":"uniform","n":100,"d":99,"k":3,"t":1}`
	if rec := do(t, h, "POST", "/datasets/load", wide, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized d status %d: %s", rec.Code, rec.Body.String())
	}
	// The limit itself loads. A linear scan under a fixed T builds no
	// tree and fills no column, so the load stays cheap.
	ok := `{"name":"fits","gen":"uniform","n":100000,"d":3,"k":3,"t":1,"backend":"linear"}`
	if rec := do(t, h, "POST", "/datasets/load", ok, nil); rec.Code != http.StatusCreated {
		t.Fatalf("in-bounds load status %d: %s", rec.Code, rec.Body.String())
	}
	// An append may not grow a dataset past the limit either.
	if rec := do(t, h, "POST", "/datasets/fits/append", `{"rows": [[0.5, 0.5, 0.5]]}`, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("append past the limit status %d: %s", rec.Code, rec.Body.String())
	}
	// created_at is surfaced in the listing.
	var list listDatasetsResponse
	do(t, h, "GET", "/datasets", "", &list)
	for _, d := range list.Datasets {
		if d.CreatedAt == "" {
			t.Fatalf("entry %q missing created_at", d.Name)
		}
	}
	// While a load is in flight, a second one is shed with 429 and a
	// Retry-After a client can pace by.
	s.loadSem <- struct{}{}
	busy := `{"name":"later","gen":"uniform","n":100,"d":3,"k":3,"t":1}`
	if rec := do(t, h, "POST", "/datasets/load", busy, nil); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("concurrent load status %d: %s", rec.Code, rec.Body.String())
	} else if secs, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("concurrent load Retry-After = %q, want an integer >= 1", rec.Header().Get("Retry-After"))
	}
	<-s.loadSem
}

// TestShardedDefaultHealthz covers the sharded-default path: hosserve
// -shards N surfaces the topology in /healthz and /datasets.
func TestShardedDefaultHealthz(t *testing.T) {
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{N: 100, D: 4, NumOutliers: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMiner(ds, core.Config{K: 3, TQuantile: 0.9, Seed: 1, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var health healthResponse
	do(t, s.Handler(), "GET", "/healthz", "", &health)
	if health.Shards != 4 || health.Datasets != 1 {
		t.Fatalf("healthz = %+v", health)
	}
	var list listDatasetsResponse
	do(t, s.Handler(), "GET", "/datasets", "", &list)
	info := list.Datasets[0]
	if info.Shards != 4 || len(info.ShardSizes) != 4 || info.Partitioner != "roundrobin" {
		t.Fatalf("default sharded info = %+v", info)
	}
	sum := 0
	for _, n := range info.ShardSizes {
		sum += n
	}
	if sum != 100 {
		t.Fatalf("shard sizes %v don't cover the dataset", info.ShardSizes)
	}
}

// TestConcurrentRegistryAndQueries races loads, evicts, queries and
// stats scrapes; correctness here is "no panic, no deadlock, no race
// report" plus consistent scalar snapshots throughout.
func TestConcurrentRegistryAndQueries(t *testing.T) {
	s := newTestServer(t, Options{MaxDatasets: 4})
	h := s.Handler()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("d%d", i%3)
			do(t, h, "POST", "/datasets/load",
				fmt.Sprintf(`{"name":%q,"gen":"synthetic","n":60,"d":3,"k":3,"tq":0.9,"shards":2}`, name), nil)
			do(t, h, "POST", "/datasets/evict", fmt.Sprintf(`{"name":%q}`, name), nil)
		}
	}()
	for i := 0; i < 40; i++ {
		do(t, h, "POST", "/query", fmt.Sprintf(`{"index":%d}`, i%20), nil)
		var snap StatsSnapshot
		do(t, h, "GET", "/stats", "", &snap)
		if snap.CacheHits+snap.CacheMisses != snap.Queries {
			t.Fatalf("torn stats under registry churn: %+v", snap)
		}
	}
	<-done
}

// TestGuardConfigDerivation pins the admission config guardConfig
// derives from Options: zero class caps take their defaults, MaxLimit
// sums the effective caps unless set, and TargetP99 follows the query
// deadline. The zero-Options row is the config hosserve runs under
// with default flags.
func TestGuardConfigDerivation(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		name     string
		opts     Options
		caps     [3]int
		maxLimit int
	}{
		{"defaults", Options{}, [3]int{4 * procs, 2, 1}, 4*procs + 3},
		{"explicit caps", Options{Overload: overload.Config{ClassCaps: [3]int{64, 2, 1}}}, [3]int{64, 2, 1}, 67},
		{"interactive only (-max-queries)", Options{Overload: interactiveCap(9)}, [3]int{9, 2, 1}, 12},
		{"explicit MaxLimit wins", Options{Overload: overload.Config{MaxLimit: 5}}, [3]int{4 * procs, 2, 1}, 5},
	} {
		s := &Server{opts: tc.opts}
		s.opts.setDefaults()
		cfg := s.guardConfig()
		if cfg.ClassCaps != tc.caps || cfg.MaxLimit != tc.maxLimit {
			t.Errorf("%s: caps %v max %d, want %v max %d", tc.name, cfg.ClassCaps, cfg.MaxLimit, tc.caps, tc.maxLimit)
		}
		if cfg.TargetP99 != s.opts.QueryTimeout/2 {
			t.Errorf("%s: TargetP99 %s, want QueryTimeout/2 = %s", tc.name, cfg.TargetP99, s.opts.QueryTimeout/2)
		}
	}
}
