package metrics

import (
	"math"
	"testing"

	"repro/internal/subspace"
)

func TestScoreBothEmpty(t *testing.T) {
	s := Score(nil, nil, MatchExact)
	if s.Precision != 1 || s.Recall != 1 || s.F1 != 1 {
		t.Fatalf("both empty = %+v", s)
	}
}

func TestScoreEmptyPrediction(t *testing.T) {
	truth := []subspace.Mask{subspace.New(0)}
	s := Score(nil, truth, MatchExact)
	if s.Recall != 0 || s.Hits != 0 {
		t.Fatalf("empty prediction = %+v", s)
	}
}

func TestScoreEmptyTruth(t *testing.T) {
	pred := []subspace.Mask{subspace.New(0)}
	s := Score(pred, nil, MatchExact)
	if s.Precision != 0 || s.Recall != 1 {
		t.Fatalf("empty truth = %+v", s)
	}
}

func TestScoreExact(t *testing.T) {
	pred := []subspace.Mask{subspace.New(0, 1), subspace.New(2)}
	truth := []subspace.Mask{subspace.New(0, 1), subspace.New(3)}
	s := Score(pred, truth, MatchExact)
	if s.TruePositives != 1 || s.Hits != 1 {
		t.Fatalf("exact = %+v", s)
	}
	if math.Abs(s.Precision-0.5) > 1e-12 || math.Abs(s.Recall-0.5) > 1e-12 {
		t.Fatalf("P/R = %v/%v", s.Precision, s.Recall)
	}
	if math.Abs(s.F1-0.5) > 1e-12 {
		t.Fatalf("F1 = %v", s.F1)
	}
}

func TestScoreSubset(t *testing.T) {
	// Prediction {1} is a subset of planted {1,3}: hit under
	// MatchSubset, miss under MatchExact.
	pred := []subspace.Mask{subspace.New(1)}
	truth := []subspace.Mask{subspace.New(1, 3)}
	if s := Score(pred, truth, MatchExact); s.Recall != 0 {
		t.Fatalf("exact: %+v", s)
	}
	if s := Score(pred, truth, MatchSubset); s.Recall != 1 || s.Precision != 1 {
		t.Fatalf("subset: %+v", s)
	}
	// Superset prediction {1,2,3} is NOT a subset match.
	sup := []subspace.Mask{subspace.New(1, 2, 3)}
	if s := Score(sup, truth, MatchSubset); s.Precision != 0 {
		t.Fatalf("superset under subset mode: %+v", s)
	}
}

func TestScoreOverlap(t *testing.T) {
	pred := []subspace.Mask{subspace.New(1, 2)}
	truth := []subspace.Mask{subspace.New(2, 3)}
	if s := Score(pred, truth, MatchOverlap); s.Recall != 1 || s.Precision != 1 {
		t.Fatalf("overlap: %+v", s)
	}
	disjoint := []subspace.Mask{subspace.New(0)}
	if s := Score(disjoint, truth, MatchOverlap); s.Recall != 0 {
		t.Fatalf("disjoint overlap: %+v", s)
	}
}

func TestScoreMultipleHitsOneTruth(t *testing.T) {
	// Two predictions hitting the same truth: TP=2, Hits=1 →
	// precision 1, recall 1/2 (second truth unmatched).
	pred := []subspace.Mask{subspace.New(0), subspace.New(1)}
	truth := []subspace.Mask{subspace.New(0, 1), subspace.New(2, 3)}
	s := Score(pred, truth, MatchSubset)
	if s.TruePositives != 2 || s.Hits != 1 {
		t.Fatalf("%+v", s)
	}
	if s.Precision != 1 || s.Recall != 0.5 {
		t.Fatalf("P/R = %v/%v", s.Precision, s.Recall)
	}
}

func TestMatchModeString(t *testing.T) {
	for _, m := range []MatchMode{MatchExact, MatchSubset, MatchOverlap, MatchMode(7)} {
		if m.String() == "" {
			t.Fatal("empty name")
		}
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if got := Mean([]float64{1, 2, 3}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("mean = %v", got)
	}
}

func TestMeanPRF(t *testing.T) {
	prfs := []PRF{
		{Precision: 1, Recall: 0.5, F1: 2.0 / 3},
		{Precision: 0, Recall: 1, F1: 0},
	}
	m := MeanPRF(prfs)
	if math.Abs(m.Precision-0.5) > 1e-12 || math.Abs(m.Recall-0.75) > 1e-12 {
		t.Fatalf("mean PRF = %+v", m)
	}
	if MeanPRF(nil) != (PRF{}) {
		t.Fatal("empty MeanPRF")
	}
}
