package core

import (
	"testing"

	"repro/internal/subspace"
)

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
	if _, err := m.ExportState(); err == nil {
		t.Fatal("export before preprocess accepted")
	}
}

func TestStateRoundTripPreservesAnswers(t *testing.T) {
	m, want := preprocessedMiner(t)
	st, err := m.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	// A fresh miner over the same dataset, no learning configured —
	// importing the state must reproduce identical answers without
	// running Preprocess work.
	m2, err := NewMiner(m.Dataset(), Config{K: 4, T: 1 /* placeholder */, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.ImportState(st); err != nil {
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
		t.Fatal("imported state changed answers")
	}
}

func TestImportStateValidation(t *testing.T) {
	m, _ := preprocessedMiner(t)
	good, err := m.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		name   string
		mutate func(s State) State
	}{
		{"version", func(s State) State { s.Version = 99; return s }},
		{"dim", func(s State) State { s.Dim = 7; return s }},
		{"k", func(s State) State { s.K = 2; return s }},
		{"metric", func(s State) State { s.Metric = "L1"; return s }},
		{"threshold", func(s State) State { s.Threshold = 0; return s }},
		{"priors len", func(s State) State { s.PUp = s.PUp[:2]; return s }},
		{"priors range", func(s State) State {
			up := append([]float64(nil), s.PUp...)
			up[2] = 5
			s.PUp = up
			return s
		}},
	}
	for _, mu := range mutations {
		bad := mu.mutate(*good)
		if err := m.ImportState(&bad); err == nil {
			t.Errorf("%s mutation accepted", mu.name)
		}
	}
	if err := m.ImportState(nil); err == nil {
		t.Error("nil state accepted")
	}
	if err := m.ImportState(good); err != nil {
		t.Errorf("valid state rejected: %v", err)
	}
}
