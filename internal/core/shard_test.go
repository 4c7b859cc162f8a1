package core

import (
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/shard"
	"repro/internal/subspace"
)

// fingerprint canonicalises a subspace set for equality checks.
func fingerprint(masks []subspace.Mask) string {
	sorted := append([]subspace.Mask(nil), masks...)
	subspace.SortMasks(sorted)
	var b strings.Builder
	for _, m := range sorted {
		b.WriteString(m.String())
	}
	return b.String()
}

// TestShardedMinerMatchesUnsharded drives whole queries (not just
// k-NN) through a sharded miner and asserts identical answers —
// thresholds, minimal sets and OD evaluation counts — against the
// single-index miner.
func TestShardedMinerMatchesUnsharded(t *testing.T) {
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{N: 150, D: 5, NumOutliers: 4, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	base := Config{K: 4, TQuantile: 0.92, Seed: 1, Backend: BackendLinear}
	ref, err := NewMiner(ds, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Preprocess(); err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{2, 5} {
		for _, part := range []shard.Partitioner{shard.RoundRobin, shard.HashPoint} {
			cfg := base
			cfg.Shards = shards
			cfg.Partitioner = part
			m, err := NewMiner(ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Preprocess(); err != nil {
				t.Fatal(err)
			}
			if m.ShardEngine() == nil || m.ShardEngine().NumShards() != shards {
				t.Fatalf("ShardEngine missing or wrong width for %d shards", shards)
			}
			if m.Threshold() != ref.Threshold() {
				t.Fatalf("%d/%v: threshold %v != %v", shards, part, m.Threshold(), ref.Threshold())
			}
			for idx := 0; idx < ds.N(); idx += 11 {
				want, err := ref.OutlyingSubspacesOfPoint(idx)
				if err != nil {
					t.Fatal(err)
				}
				got, err := m.OutlyingSubspacesOfPoint(idx)
				if err != nil {
					t.Fatal(err)
				}
				if gf, wf := fingerprint(got.Minimal), fingerprint(want.Minimal); gf != wf {
					t.Fatalf("%d shards/%v: point %d minimal %q != %q", shards, part, idx, gf, wf)
				}
				if got.ODEvaluations != want.ODEvaluations {
					t.Fatalf("%d shards/%v: point %d did %d OD evaluations, unsharded did %d",
						shards, part, idx, got.ODEvaluations, want.ODEvaluations)
				}
			}
		}
	}
}

// TestShardedMinerWorkerEvaluators checks the concurrent seam: pooled
// worker evaluators over a sharded engine answer QueryWith identically.
func TestShardedMinerWorkerEvaluators(t *testing.T) {
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{N: 90, D: 4, NumOutliers: 3, Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMiner(ds, Config{K: 3, TQuantile: 0.9, Seed: 1, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Preprocess(); err != nil {
		t.Fatal(err)
	}
	ref, err := NewMiner(ds, Config{K: 3, TQuantile: 0.9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Preprocess(); err != nil {
		t.Fatal(err)
	}
	eval, err := m.NewWorkerEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < ds.N(); idx += 13 {
		got, err := m.QueryWith(eval, m.Dataset().Point(idx), idx)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.OutlyingSubspacesOfPoint(idx)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(got.Minimal) != fingerprint(want.Minimal) {
			t.Fatalf("point %d: sharded QueryWith diverged", idx)
		}
	}
	// Per-shard counters saw the work.
	var total int64
	for _, st := range m.ShardEngine().ShardStats() {
		total += st.PointsExamined
	}
	if total == 0 {
		t.Fatal("per-shard counters stayed zero after sharded queries")
	}
}

func TestShardConfigValidation(t *testing.T) {
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{N: 40, D: 3, NumOutliers: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMiner(ds, Config{K: 3, T: 5, Shards: -1}); err == nil {
		t.Fatal("negative Shards accepted")
	}
	if _, err := NewMiner(ds, Config{K: 3, T: 5, Shards: 41}); err == nil {
		t.Fatal("Shards > N accepted")
	}
	if _, err := NewMiner(ds, Config{K: 3, T: 5, Shards: 2, Partitioner: shard.Partitioner(99)}); err == nil {
		t.Fatal("invalid partitioner accepted")
	}
	m, err := NewMiner(ds, Config{K: 3, T: 5})
	if err != nil {
		t.Fatal(err)
	}
	if m.ShardEngine() != nil {
		t.Fatal("unsharded miner has a shard engine")
	}
}
