package snapshot

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/shard"
)

// goldenSnapshot is one fixture under testdata/: the snapshot the
// encoder must turn into exactly the fixture's bytes.
type goldenSnapshot struct {
	file string
	snap *Snapshot
}

// goldenSnapshots rebuilds the inputs of the committed fixtures: the
// same 100×3 synthetic dataset as a full X-tree snapshot, a 2-shard
// hash-partitioned X-tree snapshot, a normalized linear-scan snapshot
// carrying NormStats, and a dataset-only snapshot with column names.
func goldenSnapshots(t *testing.T) []goldenSnapshot {
	t.Helper()
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{N: 100, D: 3, NumOutliers: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	prov := Provenance{Generator: "synthetic", Seed: 11, CreatedUnix: 1700000000}
	full := func(name string, base *Snapshot, cfg core.Config) *Snapshot {
		m, err := base.Miner(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Capture(name, base.Provenance, m)
		if err != nil {
			t.Fatal(err)
		}
		s.NormStats = base.NormStats
		return s
	}
	raw, err := FromDataset("golden", prov, ds)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := FromDataset("golden", prov, ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := norm.Normalize(); err != nil {
		t.Fatal(err)
	}
	named := ds.Clone()
	if err := named.SetColumns([]string{"alpha", "beta", "gamma"}); err != nil {
		t.Fatal(err)
	}
	dsOnly, err := FromDataset("golden-data", Provenance{Source: "golden.csv", CreatedUnix: 1700000000}, named)
	if err != nil {
		t.Fatal(err)
	}
	return []goldenSnapshot{
		{"xtree.snap", full("golden-xtree", raw, core.Config{K: 3, TQuantile: 0.9, SampleSize: 8, Seed: 1, Backend: core.BackendXTree})},
		{"sharded.snap", full("golden-sharded", raw, core.Config{K: 3, TQuantile: 0.9, Seed: 1, Backend: core.BackendXTree, Shards: 2, Partitioner: shard.HashPoint})},
		{"linear-norm.snap", full("golden-linear", norm, core.Config{K: 3, TQuantile: 0.95, SampleSize: 8, Seed: 2, Backend: core.BackendLinear})},
		{"dataset.snap", dsOnly},
	}
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func encodeSnapshot(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenSnapshotBytes pins the byte layout: the encoder reproduces
// every committed fixture exactly, the decoder reads each one back,
// and re-encoding what it read — after a restore and a fresh capture
// for full snapshots, so the X-tree codec round-trips too — yields the
// fixture again.
func TestGoldenSnapshotBytes(t *testing.T) {
	for _, g := range goldenSnapshots(t) {
		t.Run(g.file, func(t *testing.T) {
			want := readGolden(t, g.file)
			if got := encodeSnapshot(t, g.snap); !bytes.Equal(got, want) {
				t.Fatalf("encoder output (%d bytes) differs from the fixture (%d bytes)", len(got), len(want))
			}
			back, err := Read(bytes.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			if back.HasState() {
				m, err := back.Restore()
				if err != nil {
					t.Fatal(err)
				}
				norm := back.NormStats
				if back, err = Capture(back.Name, back.Provenance, m); err != nil {
					t.Fatal(err)
				}
				back.NormStats = norm
			}
			if got := encodeSnapshot(t, back); !bytes.Equal(got, want) {
				t.Fatal("decode → encode does not reproduce the fixture")
			}
		})
	}
}

// TestGoldenSaveFile: the durable file writer stores exactly the bytes
// Write produces.
func TestGoldenSaveFile(t *testing.T) {
	gs := goldenSnapshots(t)
	g := gs[len(gs)-1]
	path := filepath.Join(t.TempDir(), g.file)
	if err := SaveFile(path, g.snap); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, readGolden(t, g.file)) {
		t.Fatal("SaveFile output differs from the fixture")
	}
}
