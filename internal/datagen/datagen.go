// Package datagen generates the evaluation datasets of the
// reproduction: synthetic clustered data with planted outliers whose
// ground-truth outlying subspaces are known, and three "pseudo-real"
// generators standing in for the demo's real-life datasets (athlete
// training, medical labs, NBA-like season stats) — see the
// substitution note in DESIGN.md.
package datagen

import (
	"fmt"
	"math/rand"

	"repro/internal/subspace"
	"repro/internal/vector"
)

// PlantedOutlier records one planted outlier and the subspace in
// which it was made to deviate.
type PlantedOutlier struct {
	// Index of the point in the generated dataset.
	Index int
	// Subspace whose dimensions were displaced. By construction the
	// point is an extreme outlier in this subspace (and, by OD
	// monotonicity, in its supersets) and ordinary elsewhere.
	Subspace subspace.Mask
}

// GroundTruth maps planted outlier indices to their planted
// subspaces.
type GroundTruth struct {
	Outliers []PlantedOutlier
}

// ByIndex returns the planted subspace for a point index, or
// (Empty, false).
func (g GroundTruth) ByIndex(idx int) (subspace.Mask, bool) {
	for _, o := range g.Outliers {
		if o.Index == idx {
			return o.Subspace, true
		}
	}
	return subspace.Empty, false
}

// SyntheticConfig parameterises GenerateSynthetic.
type SyntheticConfig struct {
	// N is the total number of points (inliers + outliers).
	N int
	// D is the dimensionality (≤ subspace.MaxDim).
	D int
	// Clusters is the number of Gaussian clusters (default 3).
	Clusters int
	// ClusterStdDev is the per-dimension spread of each cluster
	// (default 0.5).
	ClusterStdDev float64
	// NumOutliers is how many outliers to plant (default 1; must be
	// < N).
	NumOutliers int
	// OutlierSubspaceDim is the cardinality of each planted subspace
	// (default 2, clamped to [1, D]).
	OutlierSubspaceDim int
	// Displacement is how far (in cluster-stddev units) outliers are
	// pushed in their planted dims (default 20).
	Displacement float64
	// Seed drives all randomness; identical configs generate
	// identical datasets.
	Seed int64
}

func (c *SyntheticConfig) normalize() error {
	if c.N < 2 {
		return fmt.Errorf("datagen: N = %d too small", c.N)
	}
	if c.D < 1 || c.D > subspace.MaxDim {
		return fmt.Errorf("datagen: D = %d out of [1,%d]", c.D, subspace.MaxDim)
	}
	if c.Clusters == 0 {
		c.Clusters = 3
	}
	if c.Clusters < 1 {
		return fmt.Errorf("datagen: Clusters = %d", c.Clusters)
	}
	if c.ClusterStdDev == 0 {
		c.ClusterStdDev = 0.5
	}
	if c.ClusterStdDev < 0 {
		return fmt.Errorf("datagen: negative ClusterStdDev")
	}
	if c.NumOutliers == 0 {
		c.NumOutliers = 1
	}
	if c.NumOutliers < 0 || c.NumOutliers >= c.N {
		return fmt.Errorf("datagen: NumOutliers = %d out of [0,%d)", c.NumOutliers, c.N)
	}
	if c.OutlierSubspaceDim == 0 {
		c.OutlierSubspaceDim = 2
	}
	if c.OutlierSubspaceDim < 1 {
		return fmt.Errorf("datagen: OutlierSubspaceDim = %d", c.OutlierSubspaceDim)
	}
	if c.OutlierSubspaceDim > c.D {
		c.OutlierSubspaceDim = c.D
	}
	if c.Displacement == 0 {
		c.Displacement = 20
	}
	if c.Displacement <= 0 {
		return fmt.Errorf("datagen: Displacement must be positive")
	}
	return nil
}

// GenerateSynthetic builds a clustered dataset with planted subspace
// outliers and returns it with its ground truth. Outliers occupy the
// first NumOutliers indices (convenient for experiments; callers that
// need them shuffled can permute).
//
// Construction: cluster centres are drawn uniformly in [0,10]^D;
// inliers are Gaussian around a random centre. Each outlier starts as
// an inlier of some cluster, then its planted dimensions are
// displaced by Displacement·ClusterStdDev away from every centre —
// extreme in the planted subspace, ordinary in all others.
func GenerateSynthetic(cfg SyntheticConfig) (*vector.Dataset, GroundTruth, error) {
	if err := cfg.normalize(); err != nil {
		return nil, GroundTruth{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	centers := make([][]float64, cfg.Clusters)
	for c := range centers {
		centers[c] = make([]float64, cfg.D)
		for j := range centers[c] {
			centers[c][j] = rng.Float64() * 10
		}
	}
	sample := func() []float64 {
		ctr := centers[rng.Intn(cfg.Clusters)]
		p := make([]float64, cfg.D)
		for j := range p {
			p[j] = ctr[j] + rng.NormFloat64()*cfg.ClusterStdDev
		}
		return p
	}

	rows := make([][]float64, cfg.N)
	var truth GroundTruth
	for i := 0; i < cfg.NumOutliers; i++ {
		p := sample()
		mask := randomMask(rng, cfg.D, cfg.OutlierSubspaceDim)
		mask.EachDim(func(dim int) {
			// Displace beyond the whole centre range so the point is
			// extreme in this dim regardless of cluster.
			p[dim] = 10 + cfg.Displacement*cfg.ClusterStdDev + rng.Float64()*cfg.ClusterStdDev
		})
		rows[i] = p
		truth.Outliers = append(truth.Outliers, PlantedOutlier{Index: i, Subspace: mask})
	}
	for i := cfg.NumOutliers; i < cfg.N; i++ {
		rows[i] = sample()
	}

	ds, err := vector.FromRows(rows)
	if err != nil {
		return nil, GroundTruth{}, err
	}
	return ds, truth, nil
}

// randomMask draws a random cardinality-m subspace of d dims.
func randomMask(rng *rand.Rand, d, m int) subspace.Mask {
	perm := rng.Perm(d)
	return subspace.New(perm[:m]...)
}

// GenerateUniform returns n points uniform in [0,1]^d — the
// unstructured stress case (X-tree supernodes, weak pruning).
func GenerateUniform(n, d int, seed int64) (*vector.Dataset, error) {
	if n < 1 || d < 1 || d > subspace.MaxDim {
		return nil, fmt.Errorf("datagen: invalid shape n=%d d=%d", n, d)
	}
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.Float64()
		}
	}
	return vector.FromRows(rows)
}
