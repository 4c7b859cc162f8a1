package server

import (
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
)

// TestRetentionKeepsConfigFloor: retention degrades to "keep the
// newest rows" instead of failing, also when the configuration's
// smallest valid dataset is set by SampleSize or Shards rather than
// K+1. A policy that would expire all but 3 of 150 rows leaves exactly
// that floor, under a row cap and an age horizon alike, and the sweep
// job succeeds.
func TestRetentionKeepsConfigFloor(t *testing.T) {
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{N: 150, D: 5, NumOutliers: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	configs := []struct {
		name  string
		cfg   core.Config
		floor int
	}{
		{"samples", core.Config{K: 4, TQuantile: 0.9, Seed: 1, SampleSize: 20}, 20},
		{"shards", core.Config{K: 4, TQuantile: 0.9, Seed: 1, Shards: 7}, 7},
	}
	policies := []struct{ name, body string }{
		{"max_rows", `{"max_rows":3}`},
		{"max_age", `{"max_age":"1ns"}`},
	}
	for _, c := range configs {
		for _, p := range policies {
			t.Run(c.name+"/"+p.name, func(t *testing.T) {
				m, err := core.NewMiner(ds, c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				s, err := New(m, Options{CacheSize: -1})
				if err != nil {
					t.Fatal(err)
				}
				registerClose(t, s)
				if rec := do(t, s.Handler(), "PUT", "/datasets/default/retention", p.body, nil); rec.Code != http.StatusOK {
					t.Fatalf("set retention: %d (%s)", rec.Code, rec.Body.String())
				}
				if n := s.sweepRetention(); n != 1 {
					t.Fatalf("sweep submitted %d jobs, want 1", n)
				}
				waitJobsSettled(t, s)
				st := s.Stats()
				if st.Jobs.Failed != 0 || st.Jobs.Completed != 1 {
					t.Fatalf("sweep job did not succeed: %+v", st.Jobs)
				}
				if n := s.def.view().miner.Dataset().N(); n != c.floor {
					t.Fatalf("sweep left N = %d, want the floor %d", n, c.floor)
				}
				if got := st.Datasets[0].Live.RetentionExpiredRows; got != int64(150-c.floor) {
					t.Fatalf("expired rows = %d, want %d", got, 150-c.floor)
				}
			})
		}
	}
}
