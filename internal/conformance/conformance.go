// Package conformance is a differential test harness for the
// HOS-Miner engine: it drives independently-implemented
// configurations — the linear-scan and X-tree k-NN backends, all four
// layer-ordering policies, the batched versus single-query execution
// paths, and sharded scatter-gather engines versus single-index ones
// (widths 1/2/7, both partitioners) — over the same seeded synthetic
// datasets and asserts that they produce byte-identical minimal
// outlying subspaces.
//
// The harness exists so the hot path can be refactored without fear:
// any divergence between two engines that are supposed to be
// equivalent is a bug in one of them, found without needing ground
// truth. Tests in this package run under the ordinary `go test ./...`
// tier and therefore in CI.
package conformance

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/shard"
	"repro/internal/snapshot"
	"repro/internal/subspace"
	"repro/internal/vector"
)

// Spec is one seeded dataset + miner parameterisation of the harness.
// The same Spec always builds the same dataset and, for a fixed
// backend/policy, the same preprocessed miner.
type Spec struct {
	Name string
	Gen  datagen.SyntheticConfig
	K    int
	// Exactly one of T / TQuantile is set, mirroring core.Config.
	T         float64
	TQuantile float64
	// SampleSize > 0 exercises the §3.2 learning phase too (its priors
	// feed PolicyTSF's layer ordering, which must not change answers).
	SampleSize int
	Seed       int64
}

// DefaultSpecs returns the standard battery: ≥ 5 seeded synthetic
// datasets spanning dimensionality, size, cluster count, planted
// subspace cardinality, threshold style and the learning phase.
func DefaultSpecs() []Spec {
	return []Spec{
		{
			Name: "small-d4",
			Gen:  datagen.SyntheticConfig{N: 120, D: 4, NumOutliers: 3, Seed: 101},
			K:    4, TQuantile: 0.92, Seed: 1,
		},
		{
			Name: "mid-d6-learned",
			Gen:  datagen.SyntheticConfig{N: 250, D: 6, NumOutliers: 5, Seed: 202},
			K:    5, TQuantile: 0.95, SampleSize: 12, Seed: 2,
		},
		{
			Name: "clusters-d5",
			Gen:  datagen.SyntheticConfig{N: 180, D: 5, NumOutliers: 4, Clusters: 5, Seed: 303},
			K:    3, TQuantile: 0.9, Seed: 3,
		},
		{
			Name: "deep-subspaces-d7",
			Gen:  datagen.SyntheticConfig{N: 220, D: 7, NumOutliers: 4, OutlierSubspaceDim: 3, Seed: 404},
			K:    4, TQuantile: 0.96, Seed: 4,
		},
		{
			Name: "absolute-threshold-d5",
			Gen:  datagen.SyntheticConfig{N: 160, D: 5, NumOutliers: 3, Seed: 505},
			K:    4, T: 9, Seed: 5,
		},
		{
			Name: "dense-d4-low-threshold",
			Gen:  datagen.SyntheticConfig{N: 300, D: 4, NumOutliers: 6, Seed: 606},
			K:    6, TQuantile: 0.85, Seed: 6,
		},
	}
}

// Dataset materialises the spec's dataset (identical for every call).
func (sp Spec) Dataset() (*vector.Dataset, error) {
	ds, _, err := datagen.GenerateSynthetic(sp.Gen)
	return ds, err
}

// Miner builds and preprocesses a miner for the spec under the given
// backend and policy.
func (sp Spec) Miner(backend core.Backend, policy core.Policy) (*core.Miner, error) {
	return sp.ShardedMiner(backend, policy, 0, shard.RoundRobin)
}

// ShardedMiner is Miner with a scatter-gather engine of the given
// width (shards 0 builds the ordinary single-index miner; shards 1
// builds a one-shard engine, exercising the scatter-gather plumbing
// without a partition).
func (sp Spec) ShardedMiner(backend core.Backend, policy core.Policy, shards int, part shard.Partitioner) (*core.Miner, error) {
	ds, err := sp.Dataset()
	if err != nil {
		return nil, err
	}
	m, err := core.NewMiner(ds, core.Config{
		K: sp.K, T: sp.T, TQuantile: sp.TQuantile,
		SampleSize: sp.SampleSize, Seed: sp.Seed,
		Backend: backend, Policy: policy,
		Shards: shards, Partitioner: part,
	})
	if err != nil {
		return nil, err
	}
	if err := m.Preprocess(); err != nil {
		return nil, err
	}
	return m, nil
}

// AppendedMiner builds the spec's miner over only the first prefix
// rows of the dataset and streams the remainder in through
// core.Miner.WithAppended in several chunks — the live-ingestion path
// POST /datasets/{name}/append takes. The HOS-Miner exactness contract
// says the result must be indistinguishable, bit for bit, from a miner
// built over the full dataset in one shot: same resolved threshold,
// same priors, same encoded index, same answers.
func (sp Spec) AppendedMiner(backend core.Backend, policy core.Policy, shards int, part shard.Partitioner, prefix int) (*core.Miner, error) {
	m, chunks, err := sp.appendBase(backend, policy, shards, part, prefix)
	if err != nil {
		return nil, err
	}
	for _, chunk := range chunks {
		if len(chunk) == 0 {
			continue
		}
		if m, err = m.WithAppended(chunk); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// BatchAppendedMiner is AppendedMiner's coalesced twin: the same base
// miner and the same chunks, but delivered in one
// core.Miner.WithAppendedBatch call — the path the server's group
// committed append drain takes when concurrent requests coalesce. The
// exactness contract extends to it: one batched append of several
// chunks must be indistinguishable from applying them sequentially,
// and from a one-shot rebuild.
func (sp Spec) BatchAppendedMiner(backend core.Backend, policy core.Policy, shards int, part shard.Partitioner, prefix int) (*core.Miner, error) {
	m, chunks, err := sp.appendBase(backend, policy, shards, part, prefix)
	if err != nil {
		return nil, err
	}
	return m.WithAppendedBatch(chunks...)
}

// appendBase builds the prefix-rows base miner shared by AppendedMiner
// and BatchAppendedMiner plus the remainder split into two uneven
// chunks, so the incremental path runs more than once and the second
// chunk lands on already-appended indices.
func (sp Spec) appendBase(backend core.Backend, policy core.Policy, shards int, part shard.Partitioner, prefix int) (*core.Miner, [][][]float64, error) {
	ds, err := sp.Dataset()
	if err != nil {
		return nil, nil, err
	}
	if prefix <= 0 || prefix >= ds.N() {
		return nil, nil, fmt.Errorf("prefix %d outside (0,%d)", prefix, ds.N())
	}
	rows := make([][]float64, ds.N())
	for i := range rows {
		rows[i] = ds.Point(i)
	}
	base, err := vector.FromRows(rows[:prefix])
	if err != nil {
		return nil, nil, err
	}
	m, err := core.NewMiner(base, core.Config{
		K: sp.K, T: sp.T, TQuantile: sp.TQuantile,
		SampleSize: sp.SampleSize, Seed: sp.Seed,
		Backend: backend, Policy: policy,
		Shards: shards, Partitioner: part,
	})
	if err != nil {
		return nil, nil, err
	}
	if err := m.Preprocess(); err != nil {
		return nil, nil, err
	}
	mid := prefix + (ds.N()-prefix)/3
	return m, [][][]float64{rows[prefix:mid], rows[mid:]}, nil
}

// RestoredMiner builds the spec's miner, pushes it through a full
// snapshot round trip — capture, binary encode, decode, restore — and
// returns the warm-started twin. Everything travels through the real
// on-disk byte format, so any field the codec mangles shows up as a
// divergence downstream.
func (sp Spec) RestoredMiner(backend core.Backend, policy core.Policy, shards int, part shard.Partitioner) (*core.Miner, error) {
	m, err := sp.ShardedMiner(backend, policy, shards, part)
	if err != nil {
		return nil, err
	}
	snap, err := snapshot.Capture(sp.Name, snapshot.Provenance{Generator: "synthetic", Seed: sp.Gen.Seed}, m)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, snap); err != nil {
		return nil, err
	}
	back, err := snapshot.Read(&buf)
	if err != nil {
		return nil, err
	}
	return back.Restore()
}

// ScanFingerprints runs the whole-dataset scan (the /scan operation)
// and renders every hit — index, minimal set, outlying count, severity
// — as one canonical string per hit.
func ScanFingerprints(m *core.Miner, workers int) ([]string, error) {
	hits, err := m.ScanAll(context.Background(), core.ScanOptions{Workers: workers, SortBySeverity: true})
	if err != nil {
		return nil, err
	}
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = fmt.Sprintf("#%d|%s|%d|%x", h.Index, Fingerprint(h.Minimal), h.OutlyingCount,
			math.Float64bits(h.FullSpaceOD))
	}
	return out, nil
}

// Fingerprint renders a subspace set in its canonical byte form:
// masks sorted by ascending cardinality then mask value (the order
// core.SearchResult already guarantees), each printed as its sorted
// dimension list. Two engines agree on a result iff their
// fingerprints are equal as strings.
func Fingerprint(masks []subspace.Mask) string {
	sorted := append([]subspace.Mask(nil), masks...)
	subspace.SortMasks(sorted)
	var b strings.Builder
	for _, m := range sorted {
		b.WriteString(m.String())
	}
	return b.String()
}

// MinimalFingerprints answers the outlying-subspace query for every
// dataset point through the plain single-query path and returns one
// Fingerprint of the minimal set per point.
func MinimalFingerprints(m *core.Miner) ([]string, error) {
	out := make([]string, m.Dataset().N())
	for i := range out {
		res, err := m.OutlyingSubspacesOfPoint(i)
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		out[i] = Fingerprint(res.Minimal)
	}
	return out, nil
}

// BatchMinimalFingerprints answers the same per-point queries through
// core.QueryBatch (worker fan-out over pooled evaluators) and returns
// one Fingerprint per point.
func BatchMinimalFingerprints(m *core.Miner, workers int) ([]string, error) {
	queries := make([]core.BatchQuery, m.Dataset().N())
	for i := range queries {
		queries[i] = core.BatchIndex(i)
	}
	res, err := m.QueryBatch(context.Background(), queries, core.BatchOptions{Workers: workers})
	if err != nil {
		return nil, err
	}
	out := make([]string, len(res.Items))
	for i, item := range res.Items {
		if item.Err != nil {
			return nil, fmt.Errorf("batch item %d: %w", i, item.Err)
		}
		out[i] = Fingerprint(item.Result.Minimal)
	}
	return out, nil
}

// Diff compares two per-point fingerprint slices and describes every
// divergence ("" when identical).
func Diff(nameA string, a []string, nameB string, b []string) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%s answered %d points, %s answered %d", nameA, len(a), nameB, len(b))
	}
	var sb strings.Builder
	for i := range a {
		if a[i] != b[i] {
			fmt.Fprintf(&sb, "point %d: %s=%q %s=%q\n", i, nameA, a[i], nameB, b[i])
		}
	}
	return sb.String()
}

// Backends and Policies enumerate the configurations the differential
// tests cross.
func Backends() []core.Backend {
	return []core.Backend{core.BackendLinear, core.BackendXTree}
}

// Policies returns all four layer-ordering policies.
func Policies() []core.Policy {
	return []core.Policy{core.PolicyTSF, core.PolicyBottomUp, core.PolicyTopDown, core.PolicyRandom}
}

// ShardWidths enumerates the shard counts the sharded differential
// tests cross: 1 (a one-shard engine — scatter-gather plumbing, no
// partition), a small even split, and a prime width that leaves
// shards unevenly sized.
func ShardWidths() []int { return []int{1, 2, 7} }

// Partitioners enumerates both row-assignment strategies.
func Partitioners() []shard.Partitioner {
	return []shard.Partitioner{shard.RoundRobin, shard.HashPoint}
}
