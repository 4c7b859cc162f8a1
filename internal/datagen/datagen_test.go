package datagen

import (
	"math"
	"testing"

	"repro/internal/subspace"
)

func TestGenerateSyntheticShape(t *testing.T) {
	ds, truth, err := GenerateSynthetic(SyntheticConfig{N: 200, D: 6, NumOutliers: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 200 || ds.Dim() != 6 {
		t.Fatalf("shape = (%d,%d)", ds.N(), ds.Dim())
	}
	if len(truth.Outliers) != 5 {
		t.Fatalf("%d outliers", len(truth.Outliers))
	}
	for i, o := range truth.Outliers {
		if o.Index != i {
			t.Fatalf("outlier %d at index %d", i, o.Index)
		}
		if o.Subspace.Card() != 2 {
			t.Fatalf("planted card = %d, want default 2", o.Subspace.Card())
		}
	}
}

func TestGenerateSyntheticValidation(t *testing.T) {
	bad := []SyntheticConfig{
		{N: 1, D: 3},
		{N: 100, D: 0},
		{N: 100, D: subspace.MaxDim + 1},
		{N: 100, D: 3, NumOutliers: 100},
		{N: 100, D: 3, NumOutliers: -1},
		{N: 100, D: 3, Clusters: -1},
		{N: 100, D: 3, ClusterStdDev: -0.5},
		{N: 100, D: 3, Displacement: -2},
		{N: 100, D: 3, OutlierSubspaceDim: -1},
	}
	for i, cfg := range bad {
		if _, _, err := GenerateSynthetic(cfg); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}

func TestGenerateSyntheticClampsSubspaceDim(t *testing.T) {
	_, truth, err := GenerateSynthetic(SyntheticConfig{N: 50, D: 3, OutlierSubspaceDim: 9, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if truth.Outliers[0].Subspace.Card() != 3 {
		t.Fatalf("card = %d, want clamped 3", truth.Outliers[0].Subspace.Card())
	}
}

func TestGenerateSyntheticDeterministic(t *testing.T) {
	cfg := SyntheticConfig{N: 100, D: 5, NumOutliers: 3, Seed: 7}
	a, ta, _ := GenerateSynthetic(cfg)
	b, tb, _ := GenerateSynthetic(cfg)
	for i := 0; i < a.N(); i++ {
		pa, pb := a.Point(i), b.Point(i)
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("point %d differs", i)
			}
		}
	}
	for i := range ta.Outliers {
		if ta.Outliers[i] != tb.Outliers[i] {
			t.Fatal("truth differs")
		}
	}
	c, _, _ := GenerateSynthetic(SyntheticConfig{N: 100, D: 5, NumOutliers: 3, Seed: 8})
	same := true
	for j := range a.Point(10) {
		if a.Point(10)[j] != c.Point(10)[j] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical points")
	}
}

// TestOutlierIsExtremeInPlantedDims: in each planted dim the outlier
// must be far outside the inlier range; in unplanted dims within it.
func TestOutlierIsExtremeInPlantedDims(t *testing.T) {
	ds, truth, err := GenerateSynthetic(SyntheticConfig{N: 300, D: 6, NumOutliers: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// compute inlier min/max per dim
	lo := make([]float64, 6)
	hi := make([]float64, 6)
	for j := range lo {
		lo[j], hi[j] = math.Inf(1), math.Inf(-1)
	}
	for i := len(truth.Outliers); i < ds.N(); i++ {
		for j, v := range ds.Point(i) {
			lo[j] = math.Min(lo[j], v)
			hi[j] = math.Max(hi[j], v)
		}
	}
	for _, o := range truth.Outliers {
		p := ds.Point(o.Index)
		for j := 0; j < 6; j++ {
			if o.Subspace.Contains(j) {
				if p[j] <= hi[j] {
					t.Fatalf("outlier %d dim %d: %v not beyond inlier max %v", o.Index, j, p[j], hi[j])
				}
			} else if p[j] < lo[j]-3 || p[j] > hi[j]+3 {
				t.Fatalf("outlier %d unplanted dim %d is extreme: %v outside [%v,%v]",
					o.Index, j, p[j], lo[j], hi[j])
			}
		}
	}
}

func TestGroundTruthLookup(t *testing.T) {
	_, truth, _ := GenerateSynthetic(SyntheticConfig{N: 50, D: 4, NumOutliers: 2, Seed: 5})
	if s, ok := truth.ByIndex(0); !ok || s.IsEmpty() {
		t.Fatal("ByIndex(0) missing")
	}
	if _, ok := truth.ByIndex(49); ok {
		t.Fatal("inlier reported as planted")
	}
	if len(truth.Outliers) != 2 || truth.Outliers[0].Index != 0 || truth.Outliers[1].Index != 1 {
		t.Fatalf("planted outliers = %+v, want indexes 0 and 1", truth.Outliers)
	}
}

func TestGenerateUniform(t *testing.T) {
	ds, err := GenerateUniform(100, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 100 || ds.Dim() != 4 {
		t.Fatal("shape")
	}
	for i := 0; i < ds.N(); i++ {
		for _, v := range ds.Point(i) {
			if v < 0 || v > 1 {
				t.Fatalf("uniform value %v out of [0,1]", v)
			}
		}
	}
	if _, err := GenerateUniform(0, 4, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := GenerateUniform(10, 0, 1); err == nil {
		t.Fatal("d=0 accepted")
	}
}

func TestPseudoRealGenerators(t *testing.T) {
	type gen func(n, nd int, seed int64) (ds interface {
		N() int
		Dim() int
		Columns() []string
	}, truthLen int, err error)
	cases := []struct {
		name string
		d    int
		run  func() (int, int, []string, GroundTruth, error)
	}{
		{"athlete", 6, func() (int, int, []string, GroundTruth, error) {
			ds, tr, err := Athlete(150, 4, 1)
			if err != nil {
				return 0, 0, nil, tr, err
			}
			return ds.N(), ds.Dim(), ds.Columns(), tr, nil
		}},
		{"medical", 8, func() (int, int, []string, GroundTruth, error) {
			ds, tr, err := Medical(150, 4, 1)
			if err != nil {
				return 0, 0, nil, tr, err
			}
			return ds.N(), ds.Dim(), ds.Columns(), tr, nil
		}},
		{"nba", 7, func() (int, int, []string, GroundTruth, error) {
			ds, tr, err := NBA(150, 4, 1)
			if err != nil {
				return 0, 0, nil, tr, err
			}
			return ds.N(), ds.Dim(), ds.Columns(), tr, nil
		}},
	}
	for _, c := range cases {
		n, d, cols, truth, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n != 150 || d != c.d {
			t.Fatalf("%s: shape (%d,%d)", c.name, n, d)
		}
		if len(cols) != c.d {
			t.Fatalf("%s: %d column names", c.name, len(cols))
		}
		if len(truth.Outliers) != 4 {
			t.Fatalf("%s: %d deviants", c.name, len(truth.Outliers))
		}
		for _, o := range truth.Outliers {
			if o.Subspace.Card() < 1 || o.Subspace.Card() > 2 {
				t.Fatalf("%s: deviant card %d", c.name, o.Subspace.Card())
			}
		}
	}
}

func TestPseudoRealValidation(t *testing.T) {
	if _, _, err := Athlete(5, 1, 1); err == nil {
		t.Fatal("tiny n accepted")
	}
	if _, _, err := Medical(100, 60, 1); err == nil {
		t.Fatal("too many deviants accepted")
	}
	if _, _, err := NBA(100, -1, 1); err == nil {
		t.Fatal("negative deviants accepted")
	}
}
