package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
)

func benchServer(b *testing.B, opts Options) *Server {
	b.Helper()
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{
		N: 1000, D: 8, NumOutliers: 5, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.NewMiner(ds, core.Config{K: 5, TQuantile: 0.95, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(m, opts)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkQueryCold always misses the cache (distinct points).
func BenchmarkQueryCold(b *testing.B) {
	s := benchServer(b, Options{})
	h := s.Handler()
	n := s.def.view().miner.Dataset().N()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"index": %d}`, i%n)
		req := httptest.NewRequest("POST", "/query", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkQueryCached hammers one hot key — the O(1) path repeated
// identical queries take in production.
func BenchmarkQueryCached(b *testing.B) {
	s := benchServer(b, Options{})
	h := s.Handler()
	body := `{"index": 42}`
	// Warm the entry.
	req := httptest.NewRequest("POST", "/query", strings.NewReader(body))
	h.ServeHTTP(httptest.NewRecorder(), req)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/query", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkAppendThroughput is the append lane of the bench gate: it
// drives /append requests carrying 1, 16 and 256 rows against a
// WAL-backed dataset and reports rows/s plus fsyncs/row (one
// group-commit fsync per drained batch, amortized over its rows). The
// CI gate holds batch=256 to ≥ 5x the batch=1 row throughput and to
// under one fsync per row — the amortization the mutation pipeline
// exists to provide. Auto-compaction is disabled so the WAL sync
// counter is cumulative for the whole run.
//
// An append's allocations do not grow with N, but its cost does: the
// X-tree unpack and Validate and the column probe each touch every
// row. To keep the per-op figures independent of -benchtime, the loop
// deletes its own rows by stable-ID range, outside the timed region,
// whenever they reach appendTrimRows; N then stays between the base
// and the base plus appendTrimRows (or one batch, when a batch is
// larger). The window is small so that even a
// run of a few dozen batch=1 requests spans whole trim periods. The
// trims' fsyncs are not counted. The trim cannot use keep_last: every
// request carries the same rows, so the newest rows are all copies.
func BenchmarkAppendThroughput(b *testing.B) {
	const appendTrimRows = 64
	for _, batch := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			s := benchServer(b, Options{
				DataDir: b.TempDir(), WAL: true, CacheSize: -1, WALCompactBytes: -1,
			})
			h := s.Handler()
			body := appendJSON(batch, 8, int64(batch))
			// The warm-up append engages persistence (base snapshot +
			// WAL creation) outside the timed region.
			req := httptest.NewRequest("POST", "/datasets/default/append", strings.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("warm-up append: %d (%s)", rec.Code, rec.Body.String())
			}
			var warm appendResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &warm); err != nil {
				b.Fatal(err)
			}
			// Appended rows take consecutive stable IDs, so the loop's
			// rows since the last trim are [fromID, fromID+pending).
			fromID, pending := warm.FirstID+int64(batch), 0
			var trimSyncs int64
			syncs0 := s.Stats().Datasets[0].Live.WALSyncs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest("POST", "/datasets/default/append", strings.NewReader(body))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("append: %d (%s)", rec.Code, rec.Body.String())
				}
				if pending += batch; pending >= appendTrimRows {
					b.StopTimer()
					before := s.Stats().Datasets[0].Live.WALSyncs
					trim := fmt.Sprintf(`{"from_id": %d, "to_id": %d}`, fromID, fromID+int64(pending))
					req := httptest.NewRequest("DELETE", "/datasets/default/rows", strings.NewReader(trim))
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						b.Fatalf("trim: %d (%s)", rec.Code, rec.Body.String())
					}
					trimSyncs += s.Stats().Datasets[0].Live.WALSyncs - before
					fromID, pending = fromID+int64(pending), 0
					b.StartTimer()
				}
			}
			b.StopTimer()
			rows := float64(b.N * batch)
			b.ReportMetric(rows/b.Elapsed().Seconds(), "rows/s")
			b.ReportMetric(float64(s.Stats().Datasets[0].Live.WALSyncs-syncs0-trimSyncs)/rows, "fsyncs/row")
		})
	}
}

// BenchmarkQueryParallel measures throughput with pooled evaluators
// under GOMAXPROCS client goroutines over a working set larger than
// trivially cacheable.
func BenchmarkQueryParallel(b *testing.B) {
	s := benchServer(b, Options{CacheSize: -1}) // isolate compute path
	h := s.Handler()
	n := s.def.view().miner.Dataset().N()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			body := fmt.Sprintf(`{"index": %d}`, i%n)
			i++
			req := httptest.NewRequest("POST", "/query", strings.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
		}
	})
}
