package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/snapshot"
)

// Tests for the live-mutation surface: streaming appends, id-range
// deletion, WAL persistence across restarts (clean, torn, compacted)
// and the concurrent append hammer the -race CI lane runs.

// appendJSON builds an append body for n rows of dim d, deterministic
// in seed so restart comparisons see the same data.
func appendJSON(n, d int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	body := `{"rows":[`
	for i := 0; i < n; i++ {
		if i > 0 {
			body += ","
		}
		body += "["
		for j := 0; j < d; j++ {
			if j > 0 {
				body += ","
			}
			body += fmt.Sprintf("%.6f", rng.Float64())
		}
		body += "]"
	}
	return body + "]}"
}

// restartFromSnapshot plays the hosserve snapshot-restore boot: load
// <data-dir>/default.snap, restore the miner, build a fresh server
// over the same dir and replay the default WAL. Returns the server
// and the number of replayed records.
func restartFromSnapshot(t *testing.T, dir string, opts Options) (*Server, int) {
	t.Helper()
	snap, err := snapshot.LoadFile(filepath.Join(dir, "default.snap"))
	if err != nil {
		t.Fatalf("loading default.snap: %v", err)
	}
	m, err := snap.Restore()
	if err != nil {
		t.Fatalf("restoring default.snap: %v", err)
	}
	opts.DataDir = dir
	opts.NormStats = snap.NormStats
	s, err := New(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	registerClose(t, s)
	replayed, err := s.AttachDefaultWAL()
	if err != nil {
		t.Fatalf("attaching default WAL: %v", err)
	}
	return s, replayed
}

func TestAppendAndDeleteRows(t *testing.T) {
	s := newTestServer(t, Options{CacheSize: -1})
	h := s.Handler()
	baseN := s.def.view().miner.Dataset().N()
	baseScan := bodyOf(t, h, "POST", "/scan", `{"max_results":10,"sort_by_severity":true}`)

	var ap appendResponse
	rec := do(t, h, "POST", "/datasets/default/append", appendJSON(3, 5, 1), &ap)
	if rec.Code != http.StatusOK {
		t.Fatalf("append: %d (%s)", rec.Code, rec.Body.String())
	}
	if ap.Appended != 3 || ap.N != baseN+3 || ap.Epoch != 1 || ap.FirstID != int64(baseN) {
		t.Fatalf("append response = %+v", ap)
	}
	// The appended rows are queryable by index immediately.
	if rec := do(t, h, "POST", "/query", fmt.Sprintf(`{"index":%d}`, baseN+2), nil); rec.Code != http.StatusOK {
		t.Fatalf("query appended row: %d (%s)", rec.Code, rec.Body.String())
	}
	// The append recomputed the new rows' full-space columns and those
	// of the rows they can change, not every row.
	firstRows := s.Stats().Datasets[0].Live.ColumnRowsRecomputed
	if firstRows < 3 || firstRows >= int64(baseN+3) {
		t.Fatalf("column_rows_recomputed after a 3-row append = %d, want 3..%d", firstRows, baseN+2)
	}

	// Validation surface.
	for name, body := range map[string]string{
		"empty":     `{"rows":[]}`,
		"wrong_dim": `{"rows":[[1,2]]}`,
		"non_num":   `{"rows":[[1,2,3,4,"x"]]}`,
	} {
		if rec := do(t, h, "POST", "/datasets/default/append", body, nil); rec.Code != http.StatusBadRequest {
			t.Fatalf("append %s: %d, want 400 (%s)", name, rec.Code, rec.Body.String())
		}
	}
	for name, body := range map[string]string{
		"no_selector": `{}`,
		"half_range":  `{"from_id":0}`,
		"bad_range":   fmt.Sprintf(`{"from_id":%d,"to_id":0}`, baseN),
		"both":        fmt.Sprintf(`{"keep_last":1,"from_id":0,"to_id":%d}`, baseN),
		"neg_keep":    `{"keep_last":-1}`,
		"zero_keep":   `{"keep_last":0}`, // regression: used to panic indexing ids[len-0]
		"keep_all":    `{"keep_last":100000}`,
		"empty_match": `{"from_id":900000,"to_id":900010}`,
		"neg_from":    `{"from_id":-5,"to_id":3}`,
		"inverted":    `{"from_id":7,"to_id":3}`,
	} {
		if rec := do(t, h, "DELETE", "/datasets/default/rows", body, nil); rec.Code != http.StatusBadRequest {
			t.Fatalf("delete %s: %d, want 400 (%s)", name, rec.Code, rec.Body.String())
		}
	}

	// Deleting exactly the appended ID range restores the original
	// dataset — and the original answers, bit for bit.
	var del deleteRowsResponse
	rec = do(t, h, "DELETE", "/datasets/default/rows",
		fmt.Sprintf(`{"from_id":%d,"to_id":%d}`, baseN, baseN+3), &del)
	if rec.Code != http.StatusOK {
		t.Fatalf("delete: %d (%s)", rec.Code, rec.Body.String())
	}
	if del.Deleted != 3 || del.N != baseN || del.Epoch != 2 {
		t.Fatalf("delete response = %+v", del)
	}
	if got := bodyOf(t, h, "POST", "/scan", `{"max_results":10,"sort_by_severity":true}`); got != baseScan {
		t.Fatalf("append+delete round trip changed /scan:\n before: %s\n after:  %s", baseScan, got)
	}

	// keep_last retention addresses the newest rows by position.
	do(t, h, "POST", "/datasets/default/append", appendJSON(5, 5, 2), nil)
	rec = do(t, h, "DELETE", "/datasets/default/rows", fmt.Sprintf(`{"keep_last":%d}`, baseN), &del)
	if rec.Code != http.StatusOK || del.Deleted != 5 || del.N != baseN {
		t.Fatalf("keep_last: %d, %+v (%s)", rec.Code, del, rec.Body.String())
	}

	// Epoch and mutation ledger surface in /stats and /datasets.
	st := s.Stats()
	if len(st.Datasets) != 1 {
		t.Fatalf("dataset stats: %+v", st.Datasets)
	}
	live := st.Datasets[0].Live
	if live.Epoch != 4 || live.Appends != 2 || live.AppendedRows != 8 ||
		live.Deletes != 2 || live.DeletedRows != 8 || live.NextID != int64(baseN+8) {
		t.Fatalf("live stats = %+v", live)
	}
	if live.ColumnRowsRecomputed < firstRows+5 || live.ColumnRowsRecomputed >= int64(4*baseN) {
		t.Fatalf("column_rows_recomputed over four mutations = %d, want %d..%d",
			live.ColumnRowsRecomputed, firstRows+5, 4*baseN-1)
	}
	var list listDatasetsResponse
	do(t, h, "GET", "/datasets", "", &list)
	if len(list.Datasets) != 1 || list.Datasets[0].Epoch != 4 {
		t.Fatalf("dataset listing = %+v", list.Datasets)
	}
}

// within runs fn and fails the test if it has not returned after
// limit; a call that never returns is left blocked rather than hanging
// the test binary.
func within(t *testing.T, limit time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(limit):
		t.Fatalf("%s did not return within %v", what, limit)
	}
}

// TestAppendHugeRowsThenAppendAndClose: rows whose box volumes
// overflow float64 once sent the X-tree insertion into a panic midway
// through the append drain, which left the dataset's writer lock held:
// the next append and Server.Close then waited forever. The huge rows
// must be appended, and the calls after them must return.
func TestAppendHugeRowsThenAppendAndClose(t *testing.T) {
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{N: 150, D: 8, NumOutliers: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMiner(ds, core.Config{K: 4, TQuantile: 0.9, Seed: 1, Backend: core.BackendXTree})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(m, Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	rng := rand.New(rand.NewSource(4))
	rows := make([][]float64, 64)
	for i := range rows {
		rows[i] = make([]float64, 8)
		for j := range rows[i] {
			rows[i][j] = (rng.Float64()*2 - 1) * 1e40
		}
	}
	body, err := json.Marshal(map[string]any{"rows": rows})
	if err != nil {
		t.Fatal(err)
	}
	var huge, small int
	within(t, 10*time.Second, "the append of huge rows", func() {
		huge = do(t, h, "POST", "/datasets/default/append", string(body), nil).Code
	})
	within(t, 10*time.Second, "the append after it", func() {
		small = do(t, h, "POST", "/datasets/default/append", appendJSON(3, 8, 1), nil).Code
	})
	within(t, 10*time.Second, "Server.Close", func() {
		if err := s.Close(context.Background()); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	if huge != http.StatusOK || small != http.StatusOK {
		t.Fatalf("appends answered %d and %d, want 200 and 200", huge, small)
	}
}

// TestAppendDrainPanicAnswersEveryOp: when a drain panics, the writer
// lock is released, the panic reaches the drainer's handler, and every
// coalesced op it took off the queue is answered with a 500 instead of
// waiting on its outcome forever.
func TestAppendDrainPanicAnswersEveryOp(t *testing.T) {
	s := newTestServer(t, Options{CacheSize: -1})
	d := s.def
	ops := []*appendOp{
		{rows: [][]float64{{1, 2, 3, 4, 5}}, done: make(chan appendOutcome, 1)},
		{rows: [][]float64{{5, 4, 3, 2, 1}}, done: make(chan appendOutcome, 1)},
	}
	d.pendMu.Lock()
	d.pending = append(d.pending, ops...)
	d.pendMu.Unlock()
	// A view without a miner makes the drain panic where it first
	// reads the dataset.
	good := d.view()
	d.cur.Store(&view{})
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		s.awaitAppend(d, ops[0])
	}()
	d.cur.Store(good)
	if recovered == nil {
		t.Fatal("the drain's panic did not reach its caller")
	}
	if !d.mut.TryLock() {
		t.Fatal("the writer lock is still held after the drain panicked")
	}
	d.mut.Unlock()
	for i, op := range ops {
		select {
		case out := <-op.done:
			if out.status != http.StatusInternalServerError || out.resp != nil {
				t.Fatalf("op %d answered %+v, want a 500", i, out)
			}
		default:
			t.Fatalf("op %d was never answered", i)
		}
	}
	if rec := do(t, s.Handler(), "POST", "/datasets/default/append", appendJSON(3, 5, 1), nil); rec.Code != http.StatusOK {
		t.Fatalf("append after the panic: %d (%s)", rec.Code, rec.Body.String())
	}
}

func TestAppendWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Options{DataDir: dir, WAL: true, CacheSize: -1})
	h1 := s1.Handler()
	baseN := s1.def.view().miner.Dataset().N()

	// Two appends and a delete: three WAL records over one base.
	do(t, h1, "POST", "/datasets/default/append", appendJSON(4, 5, 10), nil)
	do(t, h1, "POST", "/datasets/default/append", appendJSON(3, 5, 11), nil)
	var del deleteRowsResponse
	rec := do(t, h1, "DELETE", "/datasets/default/rows",
		fmt.Sprintf(`{"from_id":%d,"to_id":%d}`, baseN+2, baseN+5), &del)
	if rec.Code != http.StatusOK || del.Deleted != 3 {
		t.Fatalf("delete: %d, %+v", rec.Code, del)
	}
	for _, f := range []string{"default.snap", "default.wal"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("%s missing after mutations: %v", f, err)
		}
	}
	live := s1.Stats().Datasets[0].Live
	if live.WALRecords != 3 || live.WALBytes <= 0 {
		t.Fatalf("live stats = %+v", live)
	}
	wantScan := bodyOf(t, h1, "POST", "/scan", `{"max_results":12,"sort_by_severity":true}`)
	wantQuery := bodyOf(t, h1, "POST", "/query", fmt.Sprintf(`{"index":%d}`, baseN+3))

	// Restart: base snapshot + WAL replay must reproduce the exact
	// serving state, answers included.
	s2, replayed := restartFromSnapshot(t, dir, Options{WAL: true, CacheSize: -1})
	if replayed != 3 {
		t.Fatalf("replayed %d records, want 3", replayed)
	}
	h2 := s2.Handler()
	if got := bodyOf(t, h2, "POST", "/scan", `{"max_results":12,"sort_by_severity":true}`); got != wantScan {
		t.Fatalf("/scan diverged across restart:\n before: %s\n after:  %s", wantScan, got)
	}
	if got := bodyOf(t, h2, "POST", "/query", fmt.Sprintf(`{"index":%d}`, baseN+3)); got != wantQuery {
		t.Fatalf("/query diverged across restart:\n before: %s\n after:  %s", wantQuery, got)
	}
	v2 := s2.def.view()
	if v2.epoch != 3 || v2.miner.Dataset().N() != baseN+4 || v2.nextID != int64(baseN+7) {
		t.Fatalf("restored view: epoch=%d n=%d nextID=%d", v2.epoch, v2.miner.Dataset().N(), v2.nextID)
	}

	// The replayed log stays appendable: mutate on s2, restart again,
	// and the chain replays to the longer state.
	do(t, h2, "POST", "/datasets/default/append", appendJSON(2, 5, 12), nil)
	want2 := bodyOf(t, h2, "POST", "/scan", `{"max_results":12,"sort_by_severity":true}`)
	s3, replayed3 := restartFromSnapshot(t, dir, Options{WAL: true, CacheSize: -1})
	if replayed3 != 4 {
		t.Fatalf("second restart replayed %d records, want 4", replayed3)
	}
	if got := bodyOf(t, s3.Handler(), "POST", "/scan", `{"max_results":12,"sort_by_severity":true}`); got != want2 {
		t.Fatalf("/scan diverged across second restart")
	}
}

func TestWarmStartReplaysWAL(t *testing.T) {
	s1, dir := newSnapshotServer(t, Options{WAL: true, CacheSize: -1})
	h1 := s1.Handler()
	load := `{"name":"live","gen":"synthetic","n":120,"d":4,"planted":3,"seed":21,"k":4,"tq":0.9,"shards":2,"backend":"xtree"}`
	if rec := do(t, h1, "POST", "/datasets/load", load, nil); rec.Code != http.StatusCreated {
		t.Fatalf("load: %d (%s)", rec.Code, rec.Body.String())
	}
	var ap appendResponse
	if rec := do(t, h1, "POST", "/datasets/live/append", appendJSON(6, 4, 30), &ap); rec.Code != http.StatusOK {
		t.Fatalf("append: %d (%s)", rec.Code, rec.Body.String())
	}
	want := bodyOf(t, h1, "POST", "/scan", `{"dataset":"live","max_results":10,"sort_by_severity":true}`)

	s2, err := New(newTestMiner(t), Options{DataDir: dir, WAL: true, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	registerClose(t, s2)
	if n, err := s2.WarmStart(); err != nil || n != 1 {
		t.Fatalf("warm start = (%d, %v), want (1, nil)", n, err)
	}
	h2 := s2.Handler()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := s2.Stats()
		if st.Jobs.Completed+st.Jobs.Failed == 1 {
			if st.Jobs.Failed != 0 {
				t.Fatalf("warm start failed: %+v", st.Jobs)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("warm start never settled")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := bodyOf(t, h2, "POST", "/scan", `{"dataset":"live","max_results":10,"sort_by_severity":true}`); got != want {
		t.Fatalf("warm-started live dataset diverged:\n before: %s\n after:  %s", want, got)
	}
	for _, ds := range s2.Stats().Datasets {
		if ds.Name == "live" && (ds.Live.Epoch != 1 || ds.Live.WALRecords != 1 || ds.N != 126) {
			t.Fatalf("warm-started live stats = %+v", ds)
		}
	}
}

// TestFileLoadReplaysWAL: a dataset evicted and loaded back from its
// own snapshot serves every acknowledged append, because a file load
// restores through the same routine as warm start and replays
// <name>.wal; and it keeps journaling into that log, so a restart
// serves the appends made after the reload too.
func TestFileLoadReplaysWAL(t *testing.T) {
	s1, dir := newSnapshotServer(t, Options{WAL: true, CacheSize: -1})
	h1 := s1.Handler()
	load := `{"name":"foo","gen":"synthetic","n":120,"d":4,"planted":3,"seed":21,"k":4,"tq":0.9}`
	if rec := do(t, h1, "POST", "/datasets/load", load, nil); rec.Code != http.StatusCreated {
		t.Fatalf("load: %d (%s)", rec.Code, rec.Body.String())
	}
	var ap appendResponse
	if rec := do(t, h1, "POST", "/datasets/foo/append", appendJSON(5, 4, 31), &ap); rec.Code != http.StatusOK {
		t.Fatalf("append: %d (%s)", rec.Code, rec.Body.String())
	}
	scan := `{"dataset":"foo","max_results":10,"sort_by_severity":true}`
	want := bodyOf(t, h1, "POST", "/scan", scan)
	if rec := do(t, h1, "POST", "/datasets/evict", `{"name":"foo"}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("evict: %d (%s)", rec.Code, rec.Body.String())
	}
	rec := do(t, h1, "POST", "/datasets/load", `{"name":"foo","file":"foo.snap"}`, nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("file load: %d (%s)", rec.Code, rec.Body.String())
	}
	var info datasetInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.N != ap.N {
		t.Fatalf("file load serves N = %d, the evicted entry served %d", info.N, ap.N)
	}
	if got := bodyOf(t, h1, "POST", "/scan", scan); got != want {
		t.Fatalf("file-loaded foo diverged from the evicted entry:\n before: %s\n after:  %s", want, got)
	}
	if rec := do(t, h1, "POST", "/datasets/foo/append", appendJSON(1, 4, 32), &ap); rec.Code != http.StatusOK {
		t.Fatalf("append after reload: %d (%s)", rec.Code, rec.Body.String())
	}

	s2, err := New(newTestMiner(t), Options{DataDir: dir, WAL: true, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	registerClose(t, s2)
	if n, err := s2.WarmStart(); err != nil || n != 1 {
		t.Fatalf("warm start = (%d, %v), want (1, nil)", n, err)
	}
	waitJobsSettled(t, s2)
	for _, ds := range s2.Stats().Datasets {
		if ds.Name == "foo" {
			if ds.N != ap.N {
				t.Fatalf("restart serves foo with N = %d, want %d", ds.N, ap.N)
			}
			return
		}
	}
	t.Fatalf("restart did not register foo: %+v", s2.Stats().Jobs)
}

// TestEvictRetiresEntryUnderStaleCompaction is the data-loss drill for
// work that outlives an evicted entry: a compaction queued behind a
// held scan runs after foo was evicted and loaded back from foo.snap.
// The evicted entry is retired, so the stale compaction must not
// rotate foo.wal under the reloaded entry, and a restart must serve
// every acknowledged row.
func TestEvictRetiresEntryUnderStaleCompaction(t *testing.T) {
	held, hold := make(chan struct{}, 1), make(chan struct{})
	s1, dir := newSnapshotServer(t, Options{WAL: true, JobWorkers: 1, CacheSize: -1,
		FaultHook: func(op, _ string) (time.Duration, error) {
			if op == "scan" {
				held <- struct{}{}
				<-hold
			}
			return 0, nil
		}})
	release := sync.OnceFunc(func() { close(hold) })
	t.Cleanup(release)
	h := s1.Handler()
	load := `{"name":"foo","gen":"synthetic","n":120,"d":4,"planted":3,"seed":21,"k":4,"tq":0.9}`
	if rec := do(t, h, "POST", "/datasets/load", load, nil); rec.Code != http.StatusCreated {
		t.Fatalf("load: %d (%s)", rec.Code, rec.Body.String())
	}
	if rec := do(t, h, "POST", "/datasets/foo/append", appendJSON(5, 4, 31), nil); rec.Code != http.StatusOK {
		t.Fatalf("append: %d (%s)", rec.Code, rec.Body.String())
	}
	// Occupy the one job worker, then queue foo's compaction behind it.
	if rec := do(t, h, "POST", "/jobs/scan", `{}`, nil); rec.Code != http.StatusAccepted {
		t.Fatalf("scan job: %d (%s)", rec.Code, rec.Body.String())
	}
	<-held
	if rec := do(t, h, "POST", "/datasets/foo/compact", "", nil); rec.Code != http.StatusAccepted {
		t.Fatalf("compact: %d (%s)", rec.Code, rec.Body.String())
	}
	if rec := do(t, h, "POST", "/datasets/evict", `{"name":"foo"}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("evict: %d (%s)", rec.Code, rec.Body.String())
	}
	if rec := do(t, h, "POST", "/datasets/load", `{"name":"foo","file":"foo.snap"}`, nil); rec.Code != http.StatusCreated {
		t.Fatalf("file load: %d (%s)", rec.Code, rec.Body.String())
	}
	release()
	waitJobsSettled(t, s1)
	var ap appendResponse
	if rec := do(t, h, "POST", "/datasets/foo/append", appendJSON(1, 4, 32), &ap); rec.Code != http.StatusOK || ap.N != 126 {
		t.Fatalf("append after reload: %d, N = %d (%s)", rec.Code, ap.N, rec.Body.String())
	}

	s2, err := New(newTestMiner(t), Options{DataDir: dir, WAL: true, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	registerClose(t, s2)
	if n, err := s2.WarmStart(); err != nil || n != 1 {
		t.Fatalf("warm start = (%d, %v), want (1, nil)", n, err)
	}
	waitJobsSettled(t, s2)
	for _, ds := range s2.Stats().Datasets {
		if ds.Name == "foo" {
			if ds.N != ap.N {
				t.Fatalf("restart serves foo with N = %d, want every acknowledged row (%d)", ds.N, ap.N)
			}
			return
		}
	}
	t.Fatalf("restart did not register foo: %+v", s2.Stats().Jobs)
}

// TestRetiredEntryRefusesMutations: once an entry is retired — the
// moment eviction starts, before its registry slot frees — every
// mutation that still reaches it answers the 404 of an unknown
// dataset, and a compaction job fails, all without touching its files.
func TestRetiredEntryRefusesMutations(t *testing.T) {
	s, dir := newSnapshotServer(t, Options{WAL: true, CacheSize: -1})
	h := s.Handler()
	load := `{"name":"bar","gen":"synthetic","n":80,"d":3,"planted":2,"seed":4,"k":3,"tq":0.9}`
	if rec := do(t, h, "POST", "/datasets/load", load, nil); rec.Code != http.StatusCreated {
		t.Fatalf("load: %d (%s)", rec.Code, rec.Body.String())
	}
	if rec := do(t, h, "POST", "/datasets/bar/append", appendJSON(2, 3, 5), nil); rec.Code != http.StatusOK {
		t.Fatalf("append: %d (%s)", rec.Code, rec.Body.String())
	}
	walBefore, err := os.ReadFile(filepath.Join(dir, "bar.wal"))
	if err != nil {
		t.Fatal(err)
	}
	d, _ := s.reg.resolve("bar")
	d.retire()
	before := s.Stats()
	for _, req := range []struct{ method, path, body string }{
		{"POST", "/datasets/bar/append", appendJSON(1, 3, 6)},
		{"DELETE", "/datasets/bar/rows", `{"keep_last":10}`},
		{"POST", "/datasets/bar/save", ""},
	} {
		if rec := do(t, h, req.method, req.path, req.body, nil); rec.Code != http.StatusNotFound {
			t.Fatalf("%s %s on a retired entry: %d (%s)", req.method, req.path, rec.Code, rec.Body.String())
		}
	}
	if got := s.Stats().DatasetNotFound - before.DatasetNotFound; got != 3 {
		t.Fatalf("dataset_not_found += %d, want 3", got)
	}
	var job jobResponse
	rec := do(t, h, "POST", "/datasets/bar/compact", "", nil)
	if rec.Code != http.StatusAccepted || json.Unmarshal(rec.Body.Bytes(), &job) != nil {
		t.Fatalf("compact: %d (%s)", rec.Code, rec.Body.String())
	}
	waitJobsSettled(t, s)
	do(t, h, "GET", "/jobs/"+job.ID, "", &job)
	if job.State != "failed" || !strings.Contains(job.Error, "not found") {
		t.Fatalf("compaction of a retired entry: %+v", job)
	}
	walAfter, err := os.ReadFile(filepath.Join(dir, "bar.wal"))
	if err != nil || !bytes.Equal(walAfter, walBefore) {
		t.Fatalf("retired entry's log changed (err %v)", err)
	}
}

// TestTornWALWarmStart is the crash-mid-append drill: the trailing WAL
// record is truncated on disk, and a restart must replay everything up
// to the last valid record, truncate the tail, and keep serving — no
// error, no refusal to boot.
func TestTornWALWarmStart(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Options{DataDir: dir, WAL: true, CacheSize: -1})
	h1 := s1.Handler()
	baseN := s1.def.view().miner.Dataset().N()
	do(t, h1, "POST", "/datasets/default/append", appendJSON(4, 5, 40), nil)
	afterFirst := bodyOf(t, h1, "POST", "/scan", `{"max_results":10,"sort_by_severity":true}`)
	do(t, h1, "POST", "/datasets/default/append", appendJSON(3, 5, 41), nil)

	// Tear the second record mid-payload, as a crash mid-write would.
	wp := filepath.Join(dir, "default.wal")
	raw, err := os.ReadFile(wp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wp, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, replayed := restartFromSnapshot(t, dir, Options{WAL: true, CacheSize: -1})
	if replayed != 1 {
		t.Fatalf("torn restart replayed %d records, want 1", replayed)
	}
	h2 := s2.Handler()
	if n := s2.def.view().miner.Dataset().N(); n != baseN+4 {
		t.Fatalf("torn restart N = %d, want %d", n, baseN+4)
	}
	if got := bodyOf(t, h2, "POST", "/scan", `{"max_results":10,"sort_by_severity":true}`); got != afterFirst {
		t.Fatalf("torn restart serves wrong state:\n want: %s\n got:  %s", afterFirst, got)
	}
	// The torn tail was truncated, so the log is appendable again and a
	// further restart replays the repaired chain.
	do(t, h2, "POST", "/datasets/default/append", appendJSON(2, 5, 42), nil)
	want := bodyOf(t, h2, "POST", "/scan", `{"max_results":10,"sort_by_severity":true}`)
	s3, replayed3 := restartFromSnapshot(t, dir, Options{WAL: true, CacheSize: -1})
	if replayed3 != 2 {
		t.Fatalf("post-repair restart replayed %d records, want 2", replayed3)
	}
	if got := bodyOf(t, s3.Handler(), "POST", "/scan", `{"max_results":10,"sort_by_severity":true}`); got != want {
		t.Fatal("post-repair restart diverged")
	}
}

func TestCompactionFoldsWALIntoBase(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Options{DataDir: dir, WAL: true, CacheSize: -1})
	h1 := s1.Handler()
	do(t, h1, "POST", "/datasets/default/append", appendJSON(5, 5, 50), nil)
	do(t, h1, "POST", "/datasets/default/append", appendJSON(5, 5, 51), nil)
	want := bodyOf(t, h1, "POST", "/scan", `{"max_results":10,"sort_by_severity":true}`)

	rec := do(t, h1, "POST", "/datasets/default/compact", "", nil)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("compact: %d (%s)", rec.Code, rec.Body.String())
	}
	deadline := time.Now().Add(30 * time.Second)
	for s1.Stats().Datasets[0].Live.Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("compaction never completed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	live := s1.Stats().Datasets[0].Live
	if live.WALRecords != 0 {
		t.Fatalf("WAL not rotated by compaction: %+v", live)
	}
	// The rotated log replays zero records onto the fatter base — and
	// the state is exactly what was serving before compaction.
	s2, replayed := restartFromSnapshot(t, dir, Options{WAL: true, CacheSize: -1})
	if replayed != 0 {
		t.Fatalf("post-compaction restart replayed %d records, want 0", replayed)
	}
	if got := bodyOf(t, s2.Handler(), "POST", "/scan", `{"max_results":10,"sort_by_severity":true}`); got != want {
		t.Fatal("post-compaction restart diverged")
	}
	// Compaction without WAL persistence is a 400, not a queued no-op.
	bare := newTestServer(t, Options{})
	if rec := do(t, bare.Handler(), "POST", "/datasets/default/compact", "", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("compact without WAL: %d", rec.Code)
	}
}

// TestCompactRefusedWhenJobQueueFull: a compaction is a job, so a
// full job queue refuses it the way it refuses a scan — 429 with a
// Retry-After of at least one second.
func TestCompactRefusedWhenJobQueueFull(t *testing.T) {
	s := newSlowScanServer(t, Options{JobWorkers: 1, JobQueueDepth: 1, DataDir: t.TempDir(), WAL: true})
	h := s.Handler()
	var running, queued jobResponse
	if rec := do(t, h, "POST", "/jobs/scan", `{}`, &running); rec.Code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", rec.Code)
	}
	defer do(t, h, "DELETE", "/jobs/"+running.ID, "", nil)
	waitStats(t, s, "the first job running", func(st StatsSnapshot) bool { return st.Jobs.Running == 1 })
	if rec := do(t, h, "POST", "/jobs/scan", `{}`, &queued); rec.Code != http.StatusAccepted {
		t.Fatalf("second submit: status %d", rec.Code)
	}
	defer do(t, h, "DELETE", "/jobs/"+queued.ID, "", nil)
	rec := do(t, h, "POST", "/datasets/default/compact", "", nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", rec.Code, rec.Body.String())
	}
	if retry, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || retry < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", rec.Header().Get("Retry-After"))
	}
}

// TestAutoCompaction: a 1-byte budget forces maybeCompact to fire on
// the first mutation that lands in the log.
func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Options{DataDir: dir, WAL: true, WALCompactBytes: 1, CacheSize: -1})
	h := s.Handler()
	do(t, h, "POST", "/datasets/default/append", appendJSON(2, 5, 60), nil)
	deadline := time.Now().Add(30 * time.Second)
	for s.Stats().Datasets[0].Live.Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("auto-compaction never fired")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitJobsSettled waits until the async job subsystem has nothing
// queued or running, so counters mutated by jobs (retention sweeps,
// compactions) are stable to assert against.
func waitJobsSettled(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := s.Stats()
		if st.Jobs.Queued == 0 && st.Jobs.Running == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs never settled: %+v", st.Jobs)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAppendGroupCommit pins the coalescer's amortization contract:
// concurrent /append requests that arrive while the writer lock is
// held drain as ONE mutation — one epoch swap, one WAL batch frame,
// one group-commit fsync — and every caller still gets its own
// first_id, acknowledged only after its rows are durable. The test
// holds the writer lock itself so all requests are parked on the
// pending queue before any drain can start, making the coalescing
// deterministic.
func TestAppendGroupCommit(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Options{DataDir: dir, WAL: true, CacheSize: -1})
	h := s.Handler()
	d := s.def
	baseN := d.view().miner.Dataset().N()

	const callers = 4
	const rowsEach = 2

	d.mut.Lock()
	var wg sync.WaitGroup
	resps := make([]appendResponse, callers)
	codes := make([]int, callers)
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := do(t, h, "POST", "/datasets/default/append",
				appendJSON(rowsEach, 5, int64(70+i)), &resps[i])
			codes[i] = rec.Code
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		d.pendMu.Lock()
		queued := len(d.pending)
		d.pendMu.Unlock()
		if queued == callers {
			break
		}
		if time.Now().After(deadline) {
			d.mut.Unlock()
			t.Fatalf("only %d/%d appends queued", queued, callers)
		}
		time.Sleep(time.Millisecond)
	}
	d.mut.Unlock()
	wg.Wait()

	// Every caller succeeded, saw the same post-drain state, and owns a
	// distinct contiguous ID span.
	firstIDs := map[int64]bool{}
	for i := 0; i < callers; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("caller %d: status %d", i, codes[i])
		}
		r := resps[i]
		if r.Appended != rowsEach || r.N != baseN+callers*rowsEach || r.Epoch != 1 {
			t.Fatalf("caller %d response = %+v", i, r)
		}
		if r.FirstID < int64(baseN) || r.FirstID >= int64(baseN+callers*rowsEach) || (r.FirstID-int64(baseN))%rowsEach != 0 {
			t.Fatalf("caller %d first_id = %d", i, r.FirstID)
		}
		if firstIDs[r.FirstID] {
			t.Fatalf("first_id %d handed out twice", r.FirstID)
		}
		firstIDs[r.FirstID] = true
	}

	// The whole drain was one mutation: one epoch, one WAL frame, one
	// fsync — not one per caller.
	live := s.Stats().Datasets[0].Live
	if live.Appends != callers || live.AppendedRows != callers*rowsEach || live.AppendBatches != 1 {
		t.Fatalf("coalescing ledger = %+v", live)
	}
	if live.Epoch != 1 || live.WALRecords != 1 || live.WALSyncs != 1 {
		t.Fatalf("drain was not one group commit: %+v", live)
	}

	// The batch frame replays: a restart flattens it back into the
	// per-request records and reproduces the serving state exactly.
	want := bodyOf(t, h, "POST", "/scan", `{"max_results":10,"sort_by_severity":true}`)
	s2, replayed := restartFromSnapshot(t, dir, Options{WAL: true, CacheSize: -1})
	if replayed != callers {
		t.Fatalf("replayed %d records, want %d", replayed, callers)
	}
	if got := bodyOf(t, s2.Handler(), "POST", "/scan", `{"max_results":10,"sort_by_severity":true}`); got != want {
		t.Fatalf("group-committed batch diverged across restart:\n before: %s\n after:  %s", want, got)
	}
	if v2 := s2.def.view(); v2.nextID != int64(baseN+callers*rowsEach) {
		t.Fatalf("restored nextID = %d, want %d", v2.nextID, baseN+callers*rowsEach)
	}
}

// TestRetentionSweep drives the time-based retention subsystem end to
// end: policy endpoints, row-cap and age expiry through the shared
// delete path, the K+1 survivor floor, stats surfacing, and WAL
// journaling of the sweeps across a restart.
func TestRetentionSweep(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Options{DataDir: dir, WAL: true, CacheSize: -1})
	h := s.Handler()
	baseN := s.def.view().miner.Dataset().N()

	// No policy: GET reports disabled and a sweep submits nothing.
	var info retentionInfo
	if rec := do(t, h, "GET", "/datasets/default/retention", "", &info); rec.Code != http.StatusOK || info.Enabled {
		t.Fatalf("default retention = %d, %+v", rec.Code, info)
	}
	if n := s.sweepRetention(); n != 0 {
		t.Fatalf("sweep with no policy submitted %d jobs", n)
	}

	// Validation surface.
	for name, body := range map[string]string{
		"neg_rows": `{"max_rows":-1}`,
		"bad_age":  `{"max_age":"yesterday"}`,
		"neg_age":  `{"max_age":"-1h"}`,
	} {
		if rec := do(t, h, "PUT", "/datasets/default/retention", body, nil); rec.Code != http.StatusBadRequest {
			t.Fatalf("retention %s: %d, want 400 (%s)", name, rec.Code, rec.Body.String())
		}
	}

	// Row cap: the sweep expires the oldest overflow, exactly.
	if rec := do(t, h, "PUT", "/datasets/default/retention", `{"max_rows":100}`, &info); rec.Code != http.StatusOK || !info.Enabled || info.MaxRows != 100 {
		t.Fatalf("set retention = %d, %+v", rec.Code, info)
	}
	if n := s.sweepRetention(); n != 1 {
		t.Fatalf("sweep submitted %d jobs, want 1", n)
	}
	waitJobsSettled(t, s)
	if st := s.Stats(); st.Jobs.Failed != 0 {
		t.Fatalf("retention job failed: %+v", st.Jobs)
	}
	live := s.Stats().Datasets[0].Live
	wantExpired := int64(baseN - 100)
	if live.RetentionSweeps != 1 || live.RetentionExpiredRows != wantExpired ||
		live.Deletes != 1 || live.DeletedRows != wantExpired || live.RetentionMaxRows != 100 {
		t.Fatalf("post-sweep ledger = %+v, want %d expired", live, wantExpired)
	}
	if n := s.def.view().miner.Dataset().N(); n != 100 {
		t.Fatalf("post-sweep N = %d, want 100", n)
	}

	// Nothing left to expire: the sweep is counted but deletes nothing.
	if n := s.sweepRetention(); n != 1 {
		t.Fatalf("second sweep submitted %d jobs, want 1", n)
	}
	waitJobsSettled(t, s)
	live = s.Stats().Datasets[0].Live
	if live.RetentionSweeps != 2 || live.Deletes != 1 || live.RetentionExpiredRows != wantExpired {
		t.Fatalf("idle sweep mutated the ledger: %+v", live)
	}

	// Age expiry clamps at the K+1 survivor floor instead of emptying
	// the dataset: with a 1ns horizon every row is expired, but the
	// engine's minimum viable population survives.
	if rec := do(t, h, "PUT", "/datasets/default/retention", `{"max_age":"1ns"}`, &info); rec.Code != http.StatusOK || info.MaxAge != "1ns" {
		t.Fatalf("set max_age = %d, %+v", rec.Code, info)
	}
	if n := s.sweepRetention(); n != 1 {
		t.Fatalf("age sweep submitted %d jobs, want 1", n)
	}
	waitJobsSettled(t, s)
	floor := s.def.view().miner.Config().K + 1
	if n := s.def.view().miner.Dataset().N(); n != floor {
		t.Fatalf("age sweep left N = %d, want the K+1 floor %d", n, floor)
	}
	if live := s.Stats().Datasets[0].Live; live.RetentionMaxAge != "1ns" || live.RetentionMaxRows != 0 {
		t.Fatalf("retention policy not surfaced in stats: %+v", live)
	}

	// Every sweep was journaled through the same WAL path as explicit
	// deletes: a restart replays base + delete records to the same state.
	want := bodyOf(t, h, "POST", "/scan", `{"max_results":10,"sort_by_severity":true}`)
	s2, replayed := restartFromSnapshot(t, dir, Options{WAL: true, CacheSize: -1})
	if replayed != 2 {
		t.Fatalf("restart replayed %d records, want 2 delete records", replayed)
	}
	if got := bodyOf(t, s2.Handler(), "POST", "/scan", `{"max_results":10,"sort_by_severity":true}`); got != want {
		t.Fatalf("retention sweeps diverged across restart:\n before: %s\n after:  %s", want, got)
	}
}

// TestLiveAppendHammer is the -race lane's workload: concurrent
// appends, deletions, queries, batches, compactions and evict/reload
// churn against one server. Correctness here is "no race, no torn
// view, ledger adds up" — epoch-pinned handlers must never observe a
// half-swapped dataset.
func TestLiveAppendHammer(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Options{DataDir: dir, WAL: true, CacheSize: 64})
	h := s.Handler()
	baseN := s.def.view().miner.Dataset().N()

	const (
		appenders    = 2
		appendsEach  = 8
		rowsPerBatch = 2
	)
	var wg sync.WaitGroup
	start := make(chan struct{})
	run := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			f()
		}()
	}
	for a := 0; a < appenders; a++ {
		seed := int64(100 + a)
		run(func() {
			for i := 0; i < appendsEach; i++ {
				rec := do(t, h, "POST", "/datasets/default/append",
					appendJSON(rowsPerBatch, 5, seed*1000+int64(i)), nil)
				if rec.Code != http.StatusOK {
					t.Errorf("hammer append: %d (%s)", rec.Code, rec.Body.String())
					return
				}
			}
		})
	}
	run(func() { // retention deleter: racing keep_last may legitimately 400
		for i := 0; i < 6; i++ {
			do(t, h, "DELETE", "/datasets/default/rows", fmt.Sprintf(`{"keep_last":%d}`, baseN), nil)
			time.Sleep(time.Millisecond)
		}
	})
	for q := 0; q < 2; q++ {
		run(func() {
			for i := 0; i < 25; i++ {
				// Index 0 is stable across every mutation in this test.
				if rec := do(t, h, "POST", "/query", `{"index":0}`, nil); rec.Code != http.StatusOK && rec.Code != http.StatusTooManyRequests {
					t.Errorf("hammer query: %d (%s)", rec.Code, rec.Body.String())
					return
				}
			}
		})
	}
	run(func() {
		for i := 0; i < 10; i++ {
			body := `{"items":[{"index":0},{"index":1},{"index":2}]}`
			if rec := do(t, h, "POST", "/batch", body, nil); rec.Code != http.StatusOK && rec.Code != http.StatusTooManyRequests {
				t.Errorf("hammer batch: %d (%s)", rec.Code, rec.Body.String())
				return
			}
		}
	})
	run(func() { // compaction churn; queue-full 503s are expected
		for i := 0; i < 4; i++ {
			do(t, h, "POST", "/datasets/default/compact", "", nil)
			time.Sleep(2 * time.Millisecond)
		}
	})
	run(func() { // retention churn: policy writes + sweeps on the shared delete path
		if rec := do(t, h, "PUT", "/datasets/default/retention",
			fmt.Sprintf(`{"max_rows":%d}`, baseN), nil); rec.Code != http.StatusOK {
			t.Errorf("hammer retention policy: %d (%s)", rec.Code, rec.Body.String())
			return
		}
		for i := 0; i < 4; i++ {
			s.sweepRetention()
			time.Sleep(2 * time.Millisecond)
		}
	})
	run(func() { // evict/reload churn on a side dataset
		for i := 0; i < 4; i++ {
			load := fmt.Sprintf(`{"name":"churn","gen":"uniform","n":60,"d":3,"seed":%d,"k":3,"t":1.5}`, i)
			if rec := do(t, h, "POST", "/datasets/load", load, nil); rec.Code != http.StatusCreated {
				continue
			}
			do(t, h, "POST", "/query", `{"dataset":"churn","index":5}`, nil)
			do(t, h, "POST", "/datasets/evict", `{"name":"churn"}`, nil)
		}
	})
	close(start)
	wg.Wait()
	waitIdle(t, s)
	// Retention and compaction jobs may still be in flight; let them
	// settle so the counters below are stable.
	waitJobsSettled(t, s)

	// The ledger adds up: every append landed, N is base + appended −
	// deleted, and nextID advanced monotonically by appended rows.
	v := s.def.view()
	live := s.Stats().Datasets[0].Live
	wantAppended := int64(appenders * appendsEach * rowsPerBatch)
	if live.Appends != appenders*appendsEach || live.AppendedRows != wantAppended {
		t.Fatalf("append ledger = %+v, want %d appends of %d rows", live, appenders*appendsEach, wantAppended)
	}
	if live.NextID != int64(baseN)+wantAppended {
		t.Fatalf("nextID = %d, want %d", live.NextID, int64(baseN)+wantAppended)
	}
	if got := int64(v.miner.Dataset().N()); got != int64(baseN)+wantAppended-live.DeletedRows {
		t.Fatalf("N = %d, want base %d + appended %d - deleted %d", got, baseN, wantAppended, live.DeletedRows)
	}
	// And the survivor still answers.
	if rec := do(t, h, "POST", "/query", `{"index":0}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("post-hammer query: %d (%s)", rec.Code, rec.Body.String())
	}
}

// TestReplayReproducesRowIdentity: WAL replay runs the live epoch
// derivation, so a restart reproduces not just the answers but the
// row identity the live server held — the stable IDs every ID-range
// delete addresses, the next ID and the row count — with ingest stamps
// still non-decreasing. The journal covers each mutation shape: a
// coalesced drain of concurrent appends, an ID-range delete, a
// keep_last delete and a retention sweep.
func TestReplayReproducesRowIdentity(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Options{DataDir: dir, WAL: true, CacheSize: -1})
	h := s.Handler()
	d := s.def
	baseN := d.view().miner.Dataset().N()

	// Park every caller on the pending queue before any drain starts,
	// so the appends coalesce into one drain.
	const callers, rowsEach = 4, 3
	d.mut.Lock()
	var wg sync.WaitGroup
	codes := make([]int, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = do(t, h, "POST", "/datasets/default/append", appendJSON(rowsEach, 5, int64(80+i)), nil).Code
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		d.pendMu.Lock()
		queued := len(d.pending)
		d.pendMu.Unlock()
		if queued == callers {
			break
		}
		if time.Now().After(deadline) {
			d.mut.Unlock()
			t.Fatalf("only %d/%d appends queued", queued, callers)
		}
		time.Sleep(time.Millisecond)
	}
	d.mut.Unlock()
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("caller %d: status %d", i, code)
		}
	}
	if live := s.Stats().Datasets[0].Live; live.AppendBatches != 1 {
		t.Fatalf("appends did not coalesce into one drain: %+v", live)
	}

	for _, body := range []string{`{"from_id":10,"to_id":20}`, `{"keep_last":120}`} {
		if rec := do(t, h, "DELETE", "/datasets/default/rows", body, nil); rec.Code != http.StatusOK {
			t.Fatalf("delete %s: %d (%s)", body, rec.Code, rec.Body.String())
		}
	}
	if rec := do(t, h, "PUT", "/datasets/default/retention", `{"max_rows":100}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("set retention: %d (%s)", rec.Code, rec.Body.String())
	}
	if n := s.sweepRetention(); n != 1 {
		t.Fatalf("sweep submitted %d jobs, want 1", n)
	}
	waitJobsSettled(t, s)
	if st := s.Stats(); st.Jobs.Failed != 0 || st.Datasets[0].Live.RetentionExpiredRows != 20 {
		t.Fatalf("retention sweep: jobs %+v, live %+v", st.Jobs, st.Datasets[0].Live)
	}

	v1 := d.view()
	if n := v1.miner.Dataset().N(); n != 100 || v1.nextID != int64(baseN+callers*rowsEach) {
		t.Fatalf("live view: n=%d nextID=%d", n, v1.nextID)
	}
	want := bodyOf(t, h, "POST", "/scan", `{"max_results":10,"sort_by_severity":true}`)

	s2, replayed := restartFromSnapshot(t, dir, Options{WAL: true, CacheSize: -1})
	if replayed != callers+3 {
		t.Fatalf("replayed %d records, want %d appends + 3 deletes", replayed, callers)
	}
	v2 := s2.def.view()
	if !reflect.DeepEqual(v2.ids, v1.ids) {
		t.Fatalf("replayed IDs diverge:\n live:     %v\n replayed: %v", v1.ids, v2.ids)
	}
	if v2.nextID != v1.nextID || v2.miner.Dataset().N() != v1.miner.Dataset().N() {
		t.Fatalf("replayed nextID=%d n=%d, live nextID=%d n=%d",
			v2.nextID, v2.miner.Dataset().N(), v1.nextID, v1.miner.Dataset().N())
	}
	if len(v2.stamps) != len(v2.ids) {
		t.Fatalf("%d stamps for %d rows", len(v2.stamps), len(v2.ids))
	}
	for i := 1; i < len(v2.stamps); i++ {
		if v2.stamps[i] < v2.stamps[i-1] {
			t.Fatalf("replayed stamps decrease at row %d: %d < %d", i, v2.stamps[i], v2.stamps[i-1])
		}
	}
	if got := bodyOf(t, s2.Handler(), "POST", "/scan", `{"max_results":10,"sort_by_severity":true}`); got != want {
		t.Fatalf("/scan diverged across restart:\n before: %s\n after:  %s", want, got)
	}
}
