package conformance

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/vector"
)

// Differential tests for live ingestion: a dataset grown by streaming
// appends, or shrunk by a delete, must be indistinguishable from the
// same dataset built in one shot. These are the conformance backing
// for POST /datasets/{name}/append and DELETE /datasets/{name}/rows —
// the server's incremental paths are core.Miner.WithAppendedBatch and
// WithoutRows, which AppendedMiner and TestDeletedMatchesRebuilt drive.

// appendPrefix picks how much of the spec's dataset the base miner is
// built over before the rest streams in: roughly two thirds, so both
// append chunks are non-trivial.
func appendPrefix(sp Spec) int { return sp.Gen.N * 2 / 3 }

// assertAppendEqualsRebuild compares an appended-to miner against its
// from-scratch twin on resolved threshold bits and full-scan
// fingerprints (exact OD bits per hit).
func assertAppendEqualsRebuild(t *testing.T, appended, rebuilt *core.Miner) {
	t.Helper()
	if got, want := math.Float64bits(appended.Threshold()), math.Float64bits(rebuilt.Threshold()); got != want {
		t.Fatalf("thresholds diverge: appended %v, rebuilt %v", appended.Threshold(), rebuilt.Threshold())
	}
	a, err := ScanFingerprints(appended, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScanFingerprints(rebuilt, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff("appended", a, "rebuilt", b); d != "" {
		t.Fatalf("appended and rebuilt miners disagree:\n%s", d)
	}
}

// Every spec, both backends, unsharded: append ≡ rebuild.
func TestAppendedMatchesRebuilt(t *testing.T) {
	for _, sp := range DefaultSpecs() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			for _, backend := range Backends() {
				appended, err := sp.AppendedMiner(backend, core.PolicyTSF, 0, shard.RoundRobin, appendPrefix(sp))
				if err != nil {
					t.Fatalf("%v: %v", backend, err)
				}
				rebuilt, err := sp.Miner(backend, core.PolicyTSF)
				if err != nil {
					t.Fatalf("%v: %v", backend, err)
				}
				assertAppendEqualsRebuild(t, appended, rebuilt)
			}
		})
	}
}

// Sharded engines, every width and both partitioners: the incremental
// path routes each appended row to its partition-assigned shard, and
// the result must still match a one-shot sharded build. Two specs keep
// the 2 backends x 3 widths x 2 partitioners cross affordable.
func TestShardedAppendedMatchesRebuilt(t *testing.T) {
	for _, sp := range []Spec{DefaultSpecs()[0], DefaultSpecs()[2]} {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			for _, backend := range Backends() {
				for _, width := range ShardWidths() {
					for _, part := range Partitioners() {
						appended, err := sp.AppendedMiner(backend, core.PolicyTSF, width, part, appendPrefix(sp))
						if err != nil {
							t.Fatalf("%v/%d/%v: %v", backend, width, part, err)
						}
						rebuilt, err := sp.ShardedMiner(backend, core.PolicyTSF, width, part)
						if err != nil {
							t.Fatalf("%v/%d/%v: %v", backend, width, part, err)
						}
						assertAppendEqualsRebuild(t, appended, rebuilt)
					}
				}
			}
		})
	}
}

// Every spec, both backends, unsharded: one coalesced
// WithAppendedBatch of the same chunks ≡ the sequential chain of
// one-chunk calls ≡ a one-shot rebuild. This is the conformance
// backing for the server's group-committed append drain, which folds
// every request coalesced into a batch through a single
// WithAppendedBatch call.
func TestBatchAppendedMatchesSequentialAndRebuilt(t *testing.T) {
	for _, sp := range DefaultSpecs() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			for _, backend := range Backends() {
				batched, err := sp.BatchAppendedMiner(backend, core.PolicyTSF, 0, shard.RoundRobin, appendPrefix(sp))
				if err != nil {
					t.Fatalf("%v: %v", backend, err)
				}
				sequential, err := sp.AppendedMiner(backend, core.PolicyTSF, 0, shard.RoundRobin, appendPrefix(sp))
				if err != nil {
					t.Fatalf("%v: %v", backend, err)
				}
				assertAppendEqualsRebuild(t, batched, sequential)
				rebuilt, err := sp.Miner(backend, core.PolicyTSF)
				if err != nil {
					t.Fatalf("%v: %v", backend, err)
				}
				assertAppendEqualsRebuild(t, batched, rebuilt)
			}
		})
	}
}

// Sharded engines, every width and both partitioners: the batched
// append must route every coalesced row to its partition-assigned
// shard exactly as the sequential path does.
func TestShardedBatchAppendedMatchesRebuilt(t *testing.T) {
	for _, sp := range []Spec{DefaultSpecs()[0], DefaultSpecs()[2]} {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			for _, backend := range Backends() {
				for _, width := range ShardWidths() {
					for _, part := range Partitioners() {
						batched, err := sp.BatchAppendedMiner(backend, core.PolicyTSF, width, part, appendPrefix(sp))
						if err != nil {
							t.Fatalf("%v/%d/%v: %v", backend, width, part, err)
						}
						rebuilt, err := sp.ShardedMiner(backend, core.PolicyTSF, width, part)
						if err != nil {
							t.Fatalf("%v/%d/%v: %v", backend, width, part, err)
						}
						assertAppendEqualsRebuild(t, batched, rebuilt)
					}
				}
			}
		})
	}
}

// A sharded appended engine also agrees with the unsharded rebuilt
// miner — closing the triangle append x shard x single-index.
func TestShardedAppendedMatchesUnsharded(t *testing.T) {
	sp := DefaultSpecs()[3]
	single, err := sp.Miner(core.BackendXTree, core.PolicyTSF)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ScanFingerprints(single, 2)
	if err != nil {
		t.Fatal(err)
	}
	appended, err := sp.AppendedMiner(core.BackendXTree, core.PolicyTSF, 2, shard.HashPoint, appendPrefix(sp))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ScanFingerprints(appended, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff("sharded-appended", got, "unsharded", want); d != "" {
		t.Fatalf("sharded appended engine diverged from the unsharded build:\n%s", d)
	}
}

// Every spec, both backends, unsharded and on a 2-shard engine: an
// append chain followed by a WithoutRows of a scattered keep list —
// base and appended rows alike, every fifth row and every seventh
// from the third — ≡ NewMiner + Preprocess over the survivors. The
// derived miner carries its parent's full-space columns and
// recomputes only the rows the deleted ones can change; the rebuilt
// one computes every row.
func TestDeletedMatchesRebuilt(t *testing.T) {
	for _, sp := range DefaultSpecs() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			for _, backend := range Backends() {
				for _, width := range []int{0, 2} {
					appended, err := sp.AppendedMiner(backend, core.PolicyTSF, width, shard.RoundRobin, appendPrefix(sp))
					if err != nil {
						t.Fatalf("%v/%d: %v", backend, width, err)
					}
					ds := appended.Dataset()
					var keep []int
					var kept [][]float64
					for i := range ds.N() {
						if i%5 != 1 && i%7 != 3 {
							keep = append(keep, i)
							kept = append(kept, ds.Point(i))
						}
					}
					deleted, err := appended.WithoutRows(keep)
					if err != nil {
						t.Fatalf("%v/%d: %v", backend, width, err)
					}
					survivors, err := vector.FromRows(kept)
					if err != nil {
						t.Fatal(err)
					}
					rebuilt, err := core.NewMiner(survivors, sp.Config(backend, core.PolicyTSF, width, shard.RoundRobin))
					if err != nil {
						t.Fatalf("%v/%d: %v", backend, width, err)
					}
					if err := rebuilt.Preprocess(); err != nil {
						t.Fatalf("%v/%d: %v", backend, width, err)
					}
					assertAppendEqualsRebuild(t, deleted, rebuilt)
				}
			}
		})
	}
}
