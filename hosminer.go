// Package hosminer is the public API of the HOS-Miner reproduction
// (Zhang, Lou, Ling, Wang: "HOS-Miner: A System for Detecting
// Outlying Subspaces of High-dimensional Data", VLDB 2004).
//
// Given a dataset and a query point, HOS-Miner answers the
// "outlier → spaces" question: in which subspaces of the attribute
// space is this point an outlier? A point p is an outlier in subspace
// s when its Outlying Degree OD(p, s) — the sum of distances to its k
// nearest neighbours within s — reaches a threshold T. OD is monotone
// along the subspace lattice, which HOS-Miner exploits with upward and
// downward pruning, a Total-Saving-Factor-driven dynamic search, a
// sample-based learning phase that estimates pruning probabilities,
// and a refinement filter that reports only the minimal outlying
// subspaces.
//
// Quickstart:
//
//	ds, truth, _ := hosminer.GenerateSynthetic(hosminer.SyntheticConfig{
//		N: 1000, D: 8, NumOutliers: 5, Seed: 1,
//	})
//	m, _ := hosminer.New(ds, hosminer.Config{K: 5, TQuantile: 0.95, SampleSize: 20, Seed: 1})
//	res, _ := m.OutlyingSubspacesOfPoint(truth.Outliers[0].Index)
//	fmt.Println(res.Minimal) // e.g. [[2,5]]
//
// For serving: NewServer (and the hosserve command) wrap a
// preprocessed Miner in a concurrent HTTP/JSON query service with a
// result cache — see README.md and DESIGN.md §4.
package hosminer

import (
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataio"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/subspace"
	"repro/internal/vector"
)

// Subspace identifies a subset of the attribute dimensions (0-based)
// as a bitmask. See NewSubspace and ParseSubspace.
type Subspace = subspace.Mask

// NewSubspace builds a Subspace from explicit dimension indices.
func NewSubspace(dims ...int) Subspace { return subspace.New(dims...) }

// ParseSubspace parses "[0,2]" (or "0,2") into a Subspace.
func ParseSubspace(s string) (Subspace, error) { return subspace.Parse(s) }

// FullSubspace returns the subspace of all d dimensions.
func FullSubspace(d int) Subspace { return subspace.Full(d) }

// MaxDim is the largest supported dataset dimensionality.
const MaxDim = subspace.MaxDim

// Dataset is an immutable collection of d-dimensional points.
type Dataset = vector.Dataset

// FromRows builds a Dataset from a slice of equal-length rows.
func FromRows(rows [][]float64) (*Dataset, error) { return vector.FromRows(rows) }

// Metric selects the distance function.
type Metric = vector.Metric

// Distance metrics. L2 (Euclidean) is the paper's default.
const (
	L2   = vector.L2
	L1   = vector.L1
	LInf = vector.LInf
)

// Config parameterises a Miner; see the field documentation in
// internal/core. Zero values select sensible defaults except K and
// the threshold (set either T or TQuantile).
type Config = core.Config

// Policy selects the search's layer ordering.
type Policy = core.Policy

// Search ordering policies. PolicyTSF is HOS-Miner's dynamic search;
// the others exist for ablation studies.
const (
	PolicyTSF      = core.PolicyTSF
	PolicyBottomUp = core.PolicyBottomUp
	PolicyTopDown  = core.PolicyTopDown
	PolicyRandom   = core.PolicyRandom
)

// Backend selects the k-NN engine.
type Backend = core.Backend

// k-NN backends. BackendAuto picks the X-tree for large datasets.
const (
	BackendAuto   = core.BackendAuto
	BackendLinear = core.BackendLinear
	BackendXTree  = core.BackendXTree
)

// Miner is the HOS-Miner system over one dataset. Once Preprocess (or
// a snapshot restore) has run, every query, batch and scan method is
// safe for concurrent use: the Miner lends each search an evaluator
// from its own pool. Callers that want to keep an evaluator warm own
// one through Miner.NewWorkerEvaluator and Miner.QueryWith.
type Miner = core.Miner

// QueryResult carries the outlying subspaces of one query point plus
// search accounting.
type QueryResult = core.QueryResult

// ScanOptions tunes Miner.ScanAll, the whole-dataset sweep.
type ScanOptions = core.ScanOptions

// ScanHit is one outlying point found by Miner.ScanAll.
type ScanHit = core.ScanHit

// State is the preprocessing outcome (threshold + priors); see
// Miner.ExportState / ImportState. The .snap snapshot (hosminer -save,
// hosserve -data-dir) is the one on-disk format that carries it.
type State = core.State

// New builds a Miner for the dataset. Call Preprocess to index and
// learn eagerly, or query directly (preprocessing then runs lazily on
// first use).
func New(ds *Dataset, cfg Config) (*Miner, error) { return core.NewMiner(ds, cfg) }

// MinimalSubspaces applies the paper's §3.4 refinement filter to an
// arbitrary set of outlying subspaces.
func MinimalSubspaces(outlying []Subspace) []Subspace { return core.MinimalSubspaces(outlying) }

// SyntheticConfig parameterises GenerateSynthetic.
type SyntheticConfig = datagen.SyntheticConfig

// GroundTruth records planted outliers and their true outlying
// subspaces.
type GroundTruth = datagen.GroundTruth

// PlantedOutlier is one entry of a GroundTruth.
type PlantedOutlier = datagen.PlantedOutlier

// GenerateSynthetic builds a clustered dataset with planted subspace
// outliers and known ground truth.
func GenerateSynthetic(cfg SyntheticConfig) (*Dataset, GroundTruth, error) {
	return datagen.GenerateSynthetic(cfg)
}

// GenerateAthlete builds the athlete-training pseudo-real dataset
// (see DESIGN.md on real-data substitution).
func GenerateAthlete(n, numDeviants int, seed int64) (*Dataset, GroundTruth, error) {
	return datagen.Athlete(n, numDeviants, seed)
}

// GenerateMedical builds the medical-labs pseudo-real dataset.
func GenerateMedical(n, numDeviants int, seed int64) (*Dataset, GroundTruth, error) {
	return datagen.Medical(n, numDeviants, seed)
}

// GenerateNBA builds the season-statistics pseudo-real dataset.
func GenerateNBA(n, numDeviants int, seed int64) (*Dataset, GroundTruth, error) {
	return datagen.NBA(n, numDeviants, seed)
}

// LoadCSV reads a dataset from a CSV file (optional header row).
func LoadCSV(path string) (*Dataset, error) { return dataio.LoadFile(path) }

// SaveCSV writes a dataset to a CSV file with a header row.
func SaveCSV(path string, ds *Dataset) error { return dataio.SaveFile(path, ds) }

// MatchMode defines how predicted subspaces are matched against
// ground truth when scoring effectiveness.
type MatchMode = metrics.MatchMode

// Match modes for Score.
const (
	MatchExact   = metrics.MatchExact
	MatchSubset  = metrics.MatchSubset
	MatchOverlap = metrics.MatchOverlap
)

// BatchQuery is one item of a Miner.QueryBatch: a dataset row or an
// external point. Build items with BatchIndex / BatchPoint.
type BatchQuery = core.BatchQuery

// BatchIndex makes a BatchQuery for dataset row idx.
func BatchIndex(idx int) BatchQuery { return core.BatchIndex(idx) }

// BatchPoint makes a BatchQuery for an external point.
func BatchPoint(p []float64) BatchQuery { return core.BatchPoint(p) }

// BatchOptions tunes Miner.QueryBatch (fan-out, result reuse); the
// zero value selects the documented defaults.
type BatchOptions = core.BatchOptions

// BatchResult is the outcome of a Miner.QueryBatch: per-item results
// in input order plus outcome counts. Identical items in one batch
// are evaluated once; each repeat carries a copy of the first
// occurrence's answer with ODEvaluations 0 — see DESIGN.md §4.5.
type BatchResult = core.BatchResult

// BatchItemResult is one item's outcome inside a BatchResult.
type BatchItemResult = core.BatchItemResult

// ErrNotPreprocessed is returned by Miner.QueryWith before Preprocess
// or ImportState has completed.
var ErrNotPreprocessed = core.ErrNotPreprocessed

// Server is the HTTP/JSON query service over one preprocessed Miner
// (the library behind the hosserve command).
type Server = server.Server

// ServerOptions tunes NewServer (timeouts, body limit, cache size,
// scan bounds); the zero value selects the documented defaults.
type ServerOptions = server.Options

// ServerStats is the counter snapshot served at GET /stats.
type ServerStats = server.StatsSnapshot

// NewServer wraps the Miner in the HTTP service, preprocessing it if
// the caller has not. Serve the result with http.Server on
// srv.Handler().
func NewServer(m *Miner, opts ServerOptions) (*Server, error) { return server.New(m, opts) }

// PRF bundles precision, recall and F1.
type PRF = metrics.PRF

// Score compares predicted subspaces against ground truth.
func Score(predicted, truth []Subspace, mode MatchMode) PRF {
	return metrics.Score(predicted, truth, mode)
}
