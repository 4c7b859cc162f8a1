package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/shard"
	"repro/internal/subspace"
)

// restoreRoundTrip builds a fresh preprocessed miner, exports its
// state and index, reconstructs via Restore, and asserts identical
// answers for every dataset point.
func restoreRoundTrip(t *testing.T, n int, cfg Config) {
	t.Helper()
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{N: n, D: 4, NumOutliers: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewMiner(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Preprocess(); err != nil {
		t.Fatal(err)
	}
	state, idx, err := fresh.Export()
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Restore(ds, cfg, state, idx)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Threshold() != fresh.Threshold() {
		t.Fatalf("thresholds diverge: %v vs %v", warm.Threshold(), fresh.Threshold())
	}
	for i := 0; i < ds.N(); i++ {
		a, err := fresh.OutlyingSubspacesOfPoint(i)
		if err != nil {
			t.Fatal(err)
		}
		b, err := warm.OutlyingSubspacesOfPoint(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Minimal) != len(b.Minimal) {
			t.Fatalf("point %d: minimal sets diverge (%v vs %v)", i, a.Minimal, b.Minimal)
		}
		for j := range a.Minimal {
			if a.Minimal[j] != b.Minimal[j] {
				t.Fatalf("point %d: minimal[%d] %v vs %v", i, j, a.Minimal[j], b.Minimal[j])
			}
		}
	}
}

func TestRestoreSingleXTree(t *testing.T) {
	restoreRoundTrip(t, 180, Config{K: 4, TQuantile: 0.9, Seed: 1, Backend: BackendXTree})
}

func TestRestoreLinear(t *testing.T) {
	restoreRoundTrip(t, 150, Config{K: 4, TQuantile: 0.9, Seed: 1, Backend: BackendLinear})
}

func TestRestoreSharded(t *testing.T) {
	restoreRoundTrip(t, 160, Config{
		K: 4, TQuantile: 0.9, Seed: 1,
		Backend: BackendXTree, Shards: 3, Partitioner: shard.HashPoint,
	})
}

func TestRestoreShapeMismatches(t *testing.T) {
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{N: 120, D: 4, NumOutliers: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	treeCfg := Config{K: 4, TQuantile: 0.9, Seed: 1, Backend: BackendXTree}
	m, err := NewMiner(ds, treeCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Preprocess(); err != nil {
		t.Fatal(err)
	}
	st, idx, err := m.Export()
	if err != nil {
		t.Fatal(err)
	}
	if idx.Tree == nil || idx.ShardTrees != nil {
		t.Fatalf("unexpected snapshot shape: %+v", idx)
	}

	// Single-index tree offered to a linear config.
	linCfg := treeCfg
	linCfg.Backend = BackendLinear
	if _, err := Restore(ds, linCfg, st, idx); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("linear config accepted a tree snapshot: %v", err)
	}
	// Single-index tree offered to a sharded config.
	shCfg := treeCfg
	shCfg.Shards = 2
	if _, err := Restore(ds, shCfg, st, idx); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("sharded config accepted a single-tree snapshot: %v", err)
	}
	// Sharded snapshot offered to an unsharded config.
	sm, err := NewMiner(ds, shCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sm.Preprocess(); err != nil {
		t.Fatal(err)
	}
	_, sidx, err := sm.Export()
	if err != nil {
		t.Fatal(err)
	}
	if sidx.ShardTrees == nil {
		t.Fatalf("sharded snapshot missing shard trees: %+v", sidx)
	}
	if _, err := Restore(ds, treeCfg, st, sidx); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("unsharded config accepted a sharded snapshot: %v", err)
	}
	// Corrupted tree bytes must be rejected.
	bad := &IndexSnapshot{Tree: append([]byte(nil), idx.Tree...)}
	bad.Tree[len(bad.Tree)/2] ^= 0xff
	if _, err := Restore(ds, treeCfg, st, bad); err == nil {
		t.Fatal("corrupted tree bytes accepted")
	}
	// A nil index builds the tree afresh, as NewMiner does.
	plain, err := Restore(ds, treeCfg, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.NumShards() != 1 {
		t.Fatalf("nil-snapshot miner shards = %d", plain.NumShards())
	}
}

func preprocessedMiner(t *testing.T) (*Miner, *QueryResult) {
	t.Helper()
	ds := plantedDataset(t, 71, 90, 4, subspace.New(1, 3))
	m, err := NewMiner(ds, Config{K: 4, TQuantile: 0.95, SampleSize: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.OutlyingSubspacesOfPoint(0)
	if err != nil {
		t.Fatal(err)
	}
	return m, res
}

func TestExportBeforePreprocessFails(t *testing.T) {
	ds := plantedDataset(t, 71, 50, 3, subspace.New(0))
	m, _ := NewMiner(ds, Config{K: 3, T: 1})
	if _, _, err := m.Export(); err == nil {
		t.Fatal("export before preprocess accepted")
	}
}

func TestStateRoundTripPreservesAnswers(t *testing.T) {
	m, want := preprocessedMiner(t)
	st, idx, err := m.Export()
	if err != nil {
		t.Fatal(err)
	}

	// A configuration with a placeholder T and no learning: the
	// restored state must reproduce identical answers without running
	// Preprocess work.
	m2, err := Restore(m.Dataset(), Config{K: 4, T: 1, Seed: 99}, st, idx)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Threshold() != m.Threshold() {
		t.Fatalf("threshold %v != %v", m2.Threshold(), m.Threshold())
	}
	got, err := m2.OutlyingSubspacesOfPoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if !masksEqual(got.Outlying, want.Outlying) || !masksEqual(got.Minimal, want.Minimal) {
		t.Fatal("restored state changed answers")
	}
}

func TestRestoreStateValidation(t *testing.T) {
	m, _ := preprocessedMiner(t)
	good, idx, err := m.Export()
	if err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		name   string
		mutate func(s State) State
	}{
		{"threshold", func(s State) State { s.Threshold = 0; return s }},
		{"threshold NaN", func(s State) State { s.Threshold = math.NaN(); return s }},
		{"threshold +Inf", func(s State) State { s.Threshold = math.Inf(1); return s }},
		{"priors len", func(s State) State { s.PUp = s.PUp[:2]; return s }},
		{"priors range", func(s State) State {
			up := append([]float64(nil), s.PUp...)
			up[2] = 5
			s.PUp = up
			return s
		}},
		{"priors dim", func(s State) State {
			u := UniformPriors(3) // valid, but the dataset has d = 4
			s.PUp, s.PDown = u.PUp, u.PDown
			return s
		}},
	}
	for _, mu := range mutations {
		bad := mu.mutate(*good)
		if _, err := Restore(m.Dataset(), m.Config(), &bad, idx); err == nil {
			t.Errorf("%s mutation accepted", mu.name)
		}
	}
	if _, err := Restore(m.Dataset(), m.Config(), nil, idx); err == nil {
		t.Error("nil state accepted")
	}
	if _, err := Restore(m.Dataset(), m.Config(), good, idx); err != nil {
		t.Errorf("valid state rejected: %v", err)
	}
}
