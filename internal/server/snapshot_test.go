package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/shard"
	"repro/internal/snapshot"
)

// newSnapshotServer builds a test server with snapshot persistence
// enabled in a fresh temp dir.
func newSnapshotServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	opts.DataDir = dir
	s := newTestServer(t, opts)
	return s, dir
}

// bodyOf replays a request and returns the raw response body — the
// byte-identical comparisons below deliberately compare JSON bytes,
// not decoded structs, after stripping the only legitimately varying
// field (elapsed_ms timings).
func bodyOf(t *testing.T, h http.Handler, method, path, body string) string {
	t.Helper()
	rec := do(t, h, method, path, body, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: status %d (%s)", method, path, rec.Code, rec.Body.String())
	}
	return stripElapsed(rec.Body.String())
}

// stripElapsed zeroes every "elapsed_ms" timing in a JSON body.
var elapsedRe = regexp.MustCompile(`"elapsed_ms":[0-9.eE+-]+`)

func stripElapsed(s string) string {
	return elapsedRe.ReplaceAllString(s, `"elapsed_ms":0`)
}

// TestSaveThenFileLoadByteIdentical is the endpoint-level conformance
// check: a dataset saved to disk and re-registered from its snapshot
// must answer /query, /scan and /batch byte-identically to the live
// entry it was saved from.
func TestSaveThenFileLoadByteIdentical(t *testing.T) {
	s, dir := newSnapshotServer(t, Options{CacheSize: -1}) // no LRU: every answer computed
	h := s.Handler()
	load := `{"name":"live","gen":"synthetic","n":130,"d":4,"planted":3,"seed":13,
	          "k":4,"tq":0.9,"shards":2,"partitioner":"hash","backend":"xtree"}`
	if rec := do(t, h, "POST", "/datasets/load", load, nil); rec.Code != http.StatusCreated {
		t.Fatalf("load: %d (%s)", rec.Code, rec.Body.String())
	}
	var saved saveDatasetResponse
	rec := do(t, h, "POST", "/datasets/live/save", "", &saved)
	if rec.Code != http.StatusOK {
		t.Fatalf("save: %d (%s)", rec.Code, rec.Body.String())
	}
	if saved.Saved != "live" || saved.Bytes <= 0 {
		t.Fatalf("save response = %+v", saved)
	}
	if _, err := os.Stat(filepath.Join(dir, "live.snap")); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}
	fileLoad := `{"name":"restored","file":"live.snap"}`
	if rec := do(t, h, "POST", "/datasets/load", fileLoad, nil); rec.Code != http.StatusCreated {
		t.Fatalf("file load: %d (%s)", rec.Code, rec.Body.String())
	}

	probes := []struct{ path, live, restored string }{
		{"/query", `{"dataset":"live","index":7}`, `{"dataset":"restored","index":7}`},
		{"/query", `{"dataset":"live","index":42,"include_all":true}`, `{"dataset":"restored","index":42,"include_all":true}`},
		{"/scan", `{"dataset":"live","max_results":10,"sort_by_severity":true}`, `{"dataset":"restored","max_results":10,"sort_by_severity":true}`},
		{"/batch", `{"dataset":"live","items":[{"index":1},{"index":2},{"index":3}]}`, `{"dataset":"restored","items":[{"index":1},{"index":2},{"index":3}]}`},
	}
	for _, p := range probes {
		want := bodyOf(t, h, "POST", p.path, p.live)
		got := bodyOf(t, h, "POST", p.path, p.restored)
		if want != got {
			t.Fatalf("%s diverged between live and snapshot-restored entries:\n live: %s\n rest: %s", p.path, want, got)
		}
	}
}

// TestSaveLoadValidation covers the failure surface of the new
// endpoints: persistence disabled, unknown names, traversal attempts,
// parameter conflicts, corrupt files.
func TestSaveLoadValidation(t *testing.T) {
	// Without -data-dir both save and file-load are off.
	bare := newTestServer(t, Options{})
	if rec := do(t, bare.Handler(), "POST", "/datasets/default/save", "", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("save without data dir: %d", rec.Code)
	}
	if rec := do(t, bare.Handler(), "POST", "/datasets/load", `{"name":"x","file":"x.snap"}`, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("file load without data dir: %d", rec.Code)
	}

	s, dir := newSnapshotServer(t, Options{})
	h := s.Handler()
	if rec := do(t, h, "POST", "/datasets/ghost/save", "", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("save unknown: %d", rec.Code)
	}
	// Traversal and non-bare names are rejected.
	for _, file := range []string{"../x.snap", "a/b.snap", ".hidden.snap", ""} {
		body := fmt.Sprintf(`{"name":"x","file":%q}`, file)
		if rec := do(t, h, "POST", "/datasets/load", body, nil); rec.Code != http.StatusBadRequest {
			t.Fatalf("file %q: %d", file, rec.Code)
		}
	}
	// Bad registry names never reach the filesystem.
	for _, name := range []string{"", "a/b", "..", ".x", strings.Repeat("n", 65), "sp ace"} {
		body := fmt.Sprintf(`{"name":%q,"gen":"uniform","n":50,"d":3,"k":3,"t":1}`, name)
		if rec := do(t, h, "POST", "/datasets/load", body, nil); rec.Code != http.StatusBadRequest {
			t.Fatalf("name %q: %d (%s)", name, rec.Code, rec.Body.String())
		}
	}
	// Missing file.
	if rec := do(t, h, "POST", "/datasets/load", `{"name":"x","file":"missing.snap"}`, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("missing file: %d", rec.Code)
	}
	// Corrupt file: typed rejection, not a 500 or a panic.
	if err := os.WriteFile(filepath.Join(dir, "junk.snap"), []byte("HOSSNAP1 but then garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if rec := do(t, h, "POST", "/datasets/load", `{"name":"x","file":"junk.snap"}`, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("corrupt file: %d", rec.Code)
	}
	// Full snapshot + miner params is contradictory.
	if rec := do(t, h, "POST", "/datasets/default/save", "", nil); rec.Code != http.StatusOK {
		t.Fatalf("save default: %d (%s)", rec.Code, rec.Body.String())
	}
	conflicted := `{"name":"x","file":"default.snap","k":9}`
	if rec := do(t, h, "POST", "/datasets/load", conflicted, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("full snapshot with params: %d", rec.Code)
	}
	// And without params it registers fine.
	if rec := do(t, h, "POST", "/datasets/load", `{"name":"copy","file":"default.snap"}`, nil); rec.Code != http.StatusCreated {
		t.Fatalf("full snapshot load: %d (%s)", rec.Code, rec.Body.String())
	}
}

// TestFileLoadRefusesFieldsTheSnapshotFixes: a full snapshot fixes the
// miner seed and the dataset, so a file load that sets "seed", "n",
// "d" or "planted" is refused with a 400 naming the field, as one that
// sets "k" is.
func TestFileLoadRefusesFieldsTheSnapshotFixes(t *testing.T) {
	s, _ := newSnapshotServer(t, Options{})
	h := s.Handler()
	if rec := do(t, h, "POST", "/datasets/default/save", "", nil); rec.Code != http.StatusOK {
		t.Fatalf("save default: %d (%s)", rec.Code, rec.Body.String())
	}
	for _, field := range []string{"seed", "n", "d", "planted", "k"} {
		body := fmt.Sprintf(`{"name":"c","file":"default.snap",%q:9}`, field)
		rec := do(t, h, "POST", "/datasets/load", body, nil)
		var resp errorResponse
		if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &resp) != nil ||
			!strings.Contains(resp.Error, fmt.Sprintf("%q", field)) {
			t.Fatalf("full snapshot load with %q: %d (%s)", field, rec.Code, rec.Body.String())
		}
	}
	if rec := do(t, h, "POST", "/datasets/load", `{"name":"c","file":"default.snap"}`, nil); rec.Code != http.StatusCreated {
		t.Fatalf("full snapshot load: %d (%s)", rec.Code, rec.Body.String())
	}
}

// TestDatasetOnlyFileLoadMinesUnderRequest: a dataset-only snapshot
// in the data directory loads like its generator would — the request
// configures the miner — and answers byte-identically to the
// generated load it reproduces.
func TestDatasetOnlyFileLoadMinesUnderRequest(t *testing.T) {
	s, dir := newSnapshotServer(t, Options{CacheSize: -1})
	h := s.Handler()
	snap, err := snapshot.Generate("gen", "synthetic", datagen.NamedConfig{N: 90, D: 3, Planted: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.SaveFile(filepath.Join(dir, "gen.snap"), snap); err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		`{"name":"fromfile","file":"gen.snap","k":3,"tq":0.9,"seed":5}`,
		`{"name":"generated","gen":"synthetic","n":90,"d":3,"planted":2,"seed":5,"k":3,"tq":0.9}`,
	} {
		if rec := do(t, h, "POST", "/datasets/load", body, nil); rec.Code != http.StatusCreated {
			t.Fatalf("load %s: %d (%s)", body, rec.Code, rec.Body.String())
		}
	}
	want := bodyOf(t, h, "POST", "/scan", `{"dataset":"generated","max_results":5,"sort_by_severity":true}`)
	if got := bodyOf(t, h, "POST", "/scan", `{"dataset":"fromfile","max_results":5,"sort_by_severity":true}`); got != want {
		t.Fatalf("dataset-only file load diverged from its generator:\n file: %s\n gen:  %s", got, want)
	}
	// Generator fields without a generator are refused, not ignored.
	if rec := do(t, h, "POST", "/datasets/load", `{"name":"x","file":"gen.snap","n":90,"k":3,"tq":0.9}`, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("file load with \"n\": %d (%s)", rec.Code, rec.Body.String())
	}
}

// TestWarmStartServesSavedDatasets: a directory of snapshots comes
// back as registered datasets after a "restart" (a second server over
// the same data dir), loaded through the job pool with progress, and
// answers queries identically to the original entries.
func TestWarmStartServesSavedDatasets(t *testing.T) {
	s1, dir := newSnapshotServer(t, Options{})
	h1 := s1.Handler()
	for i, spec := range []string{
		`{"name":"wa","gen":"synthetic","n":90,"d":3,"planted":2,"seed":5,"k":3,"tq":0.9}`,
		`{"name":"wb","gen":"synthetic","n":100,"d":4,"planted":3,"seed":6,"k":4,"tq":0.85,"shards":2}`,
	} {
		if rec := do(t, h1, "POST", "/datasets/load", spec, nil); rec.Code != http.StatusCreated {
			t.Fatalf("load %d: %d (%s)", i, rec.Code, rec.Body.String())
		}
	}
	for _, name := range []string{"wa", "wb"} {
		if rec := do(t, h1, "POST", "/datasets/"+name+"/save", "", nil); rec.Code != http.StatusOK {
			t.Fatalf("save %s: %d", name, rec.Code)
		}
	}
	wantA := bodyOf(t, h1, "POST", "/query", `{"dataset":"wa","index":3}`)

	// "Restart": a fresh server over the same dir warm-starts both.
	m := newTestMiner(t)
	s2, err := New(m, Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	registerClose(t, s2)
	n, err := s2.WarmStart()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("warm start submitted %d jobs, want 2", n)
	}
	h2 := s2.Handler()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var list listDatasetsResponse
		do(t, h2, "GET", "/datasets", "", &list)
		if len(list.Datasets) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("warm start never registered both datasets: %+v", list.Datasets)
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := s2.Stats()
	if st.Jobs.Completed != 2 || st.Jobs.Failed != 0 {
		t.Fatalf("warm start job counters = %+v", st.Jobs)
	}
	if got := bodyOf(t, h2, "POST", "/query", `{"dataset":"wa","index":3}`); got != wantA {
		t.Fatalf("warm-started wa answers differently:\n before: %s\n after:  %s", wantA, got)
	}
	// Second warm start is a no-op: everything already registered.
	if n, err := s2.WarmStart(); err != nil || n != 0 {
		t.Fatalf("re-warm start = (%d, %v), want (0, nil)", n, err)
	}
	// A dataless server warm-starts nothing.
	if n, err := bareWarmStart(t); err != nil || n != 0 {
		t.Fatalf("no data dir warm start = (%d, %v)", n, err)
	}
}

func bareWarmStart(t *testing.T) (int, error) {
	t.Helper()
	s := newTestServer(t, Options{})
	return s.WarmStart()
}

// TestWarmStartSurfacesBadFiles: corrupt and dataset-only snapshots
// become failed jobs with readable errors, never panics, and do not
// block the good files.
func TestWarmStartSurfacesBadFiles(t *testing.T) {
	s1, dir := newSnapshotServer(t, Options{})
	h1 := s1.Handler()
	if rec := do(t, h1, "POST", "/datasets/load",
		`{"name":"good","gen":"synthetic","n":80,"d":3,"planted":2,"seed":8,"k":3,"tq":0.9}`, nil); rec.Code != http.StatusCreated {
		t.Fatalf("load: %d", rec.Code)
	}
	if rec := do(t, h1, "POST", "/datasets/good/save", "", nil); rec.Code != http.StatusOK {
		t.Fatalf("save: %d", rec.Code)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.snap"), []byte("definitely not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	m := newTestMiner(t)
	s2, err := New(m, Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	registerClose(t, s2)
	n, err := s2.WarmStart()
	if err != nil || n != 2 {
		t.Fatalf("warm start = (%d, %v), want (2, nil)", n, err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := s2.Stats()
		if st.Jobs.Completed+st.Jobs.Failed == 2 {
			if st.Jobs.Completed != 1 || st.Jobs.Failed != 1 {
				t.Fatalf("job counters = %+v, want 1 completed + 1 failed", st.Jobs)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("warm start jobs never settled: %+v", s2.Stats().Jobs)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if rec := do(t, s2.Handler(), "POST", "/query", `{"dataset":"good","index":1}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("good dataset unavailable after warm start: %d", rec.Code)
	}
}

// TestEvictThenReloadServesFreshResults is the regression test for
// cache reuse across a name's lifetimes: after evicting synth2 and
// reloading the same name with a different seed (different bytes), no
// answer may come from the old entry's result LRU — the reload
// must serve exactly what a directly built miner over the new data
// serves, and the first query after reload must be a cache miss.
func TestEvictThenReloadServesFreshResults(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	load := func(seed int64) {
		body := fmt.Sprintf(`{"name":"synth2","gen":"synthetic","n":110,"d":4,"planted":3,"seed":%d,"k":4,"tq":0.9}`, seed)
		if rec := do(t, h, "POST", "/datasets/load", body, nil); rec.Code != http.StatusCreated {
			t.Fatalf("load seed %d: %d (%s)", seed, rec.Code, rec.Body.String())
		}
	}
	query := func() (*queryResponse, string) {
		var resp queryResponse
		rec := do(t, h, "POST", "/query", `{"dataset":"synth2","index":5}`, &resp)
		if rec.Code != http.StatusOK {
			t.Fatalf("query: %d", rec.Code)
		}
		return &resp, rec.Header().Get("X-Cache")
	}

	load(7)
	first, _ := query()
	// Same query again: cached now — the hazard the regression guards.
	if _, cache := query(); cache != "HIT" {
		t.Fatalf("second query X-Cache = %q, want HIT", cache)
	}
	if rec := do(t, h, "POST", "/datasets/evict", `{"name":"synth2"}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("evict: %d", rec.Code)
	}
	load(99) // same name, different bytes

	got, cache := query()
	if cache != "MISS" {
		t.Fatalf("first query after reload X-Cache = %q, want MISS (old LRU served)", cache)
	}
	// The answer must be the new data's answer, computed independently.
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{N: 110, D: 4, NumOutliers: 3, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMiner(ds, core.Config{K: 4, TQuantile: 0.9, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.OutlyingSubspacesOfPoint(5)
	if err != nil {
		t.Fatal(err)
	}
	if got.Threshold != want.Threshold || got.IsOutlier != want.IsOutlierAnywhere ||
		got.OutlyingCount != len(want.Outlying) {
		t.Fatalf("reloaded answer stale: got T=%v outlier=%v count=%d, want T=%v outlier=%v count=%d",
			got.Threshold, got.IsOutlier, got.OutlyingCount,
			want.Threshold, want.IsOutlierAnywhere, len(want.Outlying))
	}
	// Belt and braces: thresholds from different seeds differ, so a
	// stale entry would have tripped the comparison above.
	if got.Threshold == first.Threshold {
		t.Fatalf("old and new thresholds coincide (%v); regression test lost its teeth", got.Threshold)
	}
	_ = shard.RoundRobin // keep the import honest if specs above change
}

// TestRegistryErrorsCountedSeparately pins the /stats taxonomy:
// registry conflicts (409) and unknown-dataset 404s land in their own
// counters, not in the server-error count.
func TestRegistryErrorsCountedSeparately(t *testing.T) {
	s := newTestServer(t, Options{MaxDatasets: 2})
	h := s.Handler()
	before := s.Stats()
	ok := `{"name":"one","gen":"uniform","n":60,"d":3,"k":3,"t":1}`
	if rec := do(t, h, "POST", "/datasets/load", ok, nil); rec.Code != http.StatusCreated {
		t.Fatalf("load: %d", rec.Code)
	}
	// Duplicate (409), registry full (409), evict missing (404), query
	// missing (404).
	if rec := do(t, h, "POST", "/datasets/load", ok, nil); rec.Code != http.StatusConflict {
		t.Fatalf("duplicate: %d", rec.Code)
	}
	full := `{"name":"two","gen":"uniform","n":60,"d":3,"k":3,"t":1}`
	if rec := do(t, h, "POST", "/datasets/load", full, nil); rec.Code != http.StatusConflict {
		t.Fatalf("full: %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/datasets/evict", `{"name":"ghost"}`, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("evict missing: %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/query", `{"dataset":"ghost","index":0}`, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("query missing: %d", rec.Code)
	}
	st := s.Stats()
	if got := st.RegistryConflicts - before.RegistryConflicts; got != 2 {
		t.Fatalf("registry_conflicts += %d, want 2", got)
	}
	if got := st.DatasetNotFound - before.DatasetNotFound; got != 2 {
		t.Fatalf("dataset_not_found += %d, want 2", got)
	}
	if st.Errors != before.Errors {
		t.Fatalf("errors moved by %d; refusals must not count as server errors", st.Errors-before.Errors)
	}
}
