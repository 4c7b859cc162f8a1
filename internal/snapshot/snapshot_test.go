package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/shard"
	"repro/internal/vector"
)

func testMiner(t *testing.T, cfg core.Config) *core.Miner {
	t.Helper()
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{N: 140, D: 4, NumOutliers: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMiner(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Preprocess(); err != nil {
		t.Fatal(err)
	}
	return m
}

func captureTest(t *testing.T, cfg core.Config) *Snapshot {
	t.Helper()
	m := testMiner(t, cfg)
	s, err := Capture("unit", Provenance{Generator: "synthetic", Seed: 21, CreatedUnix: 1700000000}, m)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWriteReadRoundTrip pins every field of the container format
// through a full write/read cycle, for unsharded and sharded capture.
func TestWriteReadRoundTrip(t *testing.T) {
	configs := map[string]core.Config{
		"xtree":   {K: 4, TQuantile: 0.9, Seed: 2, Backend: core.BackendXTree, SampleSize: 10},
		"linear":  {K: 4, T: 8, Seed: 2, Backend: core.BackendLinear},
		"sharded": {K: 4, TQuantile: 0.9, Seed: 2, Backend: core.BackendXTree, Shards: 3, Partitioner: shard.HashPoint},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			s := captureTest(t, cfg)
			var buf bytes.Buffer
			if err := Write(&buf, s); err != nil {
				t.Fatalf("write: %v", err)
			}
			got, err := Read(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if got.Name != s.Name || got.Provenance != s.Provenance {
				t.Fatalf("identity diverged: %+v vs %+v", got, s)
			}
			if got.Config != s.Config {
				t.Fatalf("config diverged: %+v vs %+v", got.Config, s.Config)
			}
			if !reflect.DeepEqual(got.State, s.State) {
				t.Fatalf("state diverged: %+v vs %+v", got.State, s.State)
			}
			if !reflect.DeepEqual(got.Index, s.Index) {
				t.Fatalf("index diverged")
			}
			if !reflect.DeepEqual(got.Dataset.Rows(), s.Dataset.Rows()) {
				t.Fatal("dataset bytes diverged")
			}
			if !reflect.DeepEqual(got.Dataset.Columns(), s.Dataset.Columns()) {
				t.Fatalf("columns diverged: %v vs %v", got.Dataset.Columns(), s.Dataset.Columns())
			}

			// And the restored miner answers like the original.
			fresh := testMiner(t, cfg)
			warm, err := got.Restore()
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if warm.Threshold() != fresh.Threshold() {
				t.Fatalf("threshold %v vs %v", warm.Threshold(), fresh.Threshold())
			}
			for i := 0; i < 25; i++ {
				a, err := fresh.OutlyingSubspacesOfPoint(i)
				if err != nil {
					t.Fatal(err)
				}
				b, err := warm.OutlyingSubspacesOfPoint(i)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a.Minimal, b.Minimal) {
					t.Fatalf("point %d: %v vs %v", i, a.Minimal, b.Minimal)
				}
			}
		})
	}
}

func TestDatasetOnlySnapshot(t *testing.T) {
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{N: 60, D: 3, NumOutliers: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromDataset("gen-only", Provenance{Generator: "synthetic", Seed: 5}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if s.HasState() {
		t.Fatal("dataset-only snapshot claims state")
	}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.HasState() || got.Index != nil {
		t.Fatalf("dataset-only snapshot grew sections: %+v", got)
	}
	if !reflect.DeepEqual(got.Dataset.Rows(), ds.Rows()) {
		t.Fatal("dataset diverged")
	}
	if _, err := got.Restore(); err == nil {
		t.Fatal("Restore succeeded without state")
	}
}

func TestSaveLoadFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "unit.snap")
	s := captureTest(t, core.Config{K: 4, TQuantile: 0.9, Seed: 2})
	if err := SaveFile(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "unit" {
		t.Fatalf("name = %q", got.Name)
	}
	// No temp litter.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want only the snapshot", len(entries))
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.snap")); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}

// TestTypedDecodeErrors drives each failure class and checks the
// errors.Is taxonomy.
func TestTypedDecodeErrors(t *testing.T) {
	s := captureTest(t, core.Config{K: 4, TQuantile: 0.9, Seed: 2, Backend: core.BackendXTree})
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	// Bad magic.
	mut := append([]byte(nil), valid...)
	mut[0] = 'X'
	if _, err := Read(bytes.NewReader(mut)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}
	// Future version.
	mut = append([]byte(nil), valid...)
	mut[8] = 99
	if _, err := Read(bytes.NewReader(mut)); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: %v", err)
	}
	// Truncations at every boundary class.
	for _, cut := range []int{0, 7, 23, 24, len(valid) / 2, len(valid) - 1} {
		if _, err := Read(bytes.NewReader(valid[:cut])); !errors.Is(err, ErrTruncated) {
			t.Fatalf("truncation at %d: %v", cut, err)
		}
	}
	// Payload corruption: CRC catches any payload flip.
	mut = append([]byte(nil), valid...)
	mut[24+len(mut[24:])/2] ^= 0x01
	if _, err := Read(bytes.NewReader(mut)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("payload flip: %v", err)
	}
	// Consistent CRC over a corrupt field: recompute the CRC after
	// mutating the declared name length to something absurd.
	mut = append([]byte(nil), valid...)
	putU32(mut[24:28], 1<<30) // name length field
	rehash(mut)
	if _, err := Read(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("field overrun: %v", err)
	}
	// All of the above are ErrSnapshot.
	for _, err := range []error{ErrBadMagic, ErrVersion, ErrTruncated, ErrChecksum, ErrCorrupt} {
		if !errors.Is(err, ErrSnapshot) {
			t.Fatalf("%v does not match ErrSnapshot", err)
		}
	}
	// Writing nothing fails.
	if err := Write(&buf, nil); err == nil {
		t.Fatal("Write(nil) succeeded")
	}
}

// rehash recomputes the header CRC over the (mutated) payload so the
// decoder gets past the checksum and into field validation.
func rehash(b []byte) {
	putU32(b[20:24], crc32.ChecksumIEEE(b[24:]))
}

// TestConstructorGuards covers the nil-argument and error arms of the
// public constructors.
func TestConstructorGuards(t *testing.T) {
	if _, err := Capture("x", Provenance{}, nil); err == nil {
		t.Fatal("Capture(nil miner) succeeded")
	}
	if _, err := FromDataset("x", Provenance{}, nil); err == nil {
		t.Fatal("FromDataset(nil) succeeded")
	}
	// Capturing an un-preprocessed miner must fail: the snapshot would
	// claim state that does not exist.
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{N: 50, D: 3, NumOutliers: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMiner(ds, core.Config{K: 3, TQuantile: 0.9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Capture("raw", Provenance{}, m); err == nil {
		t.Fatal("Capture before Preprocess succeeded")
	}
	// SaveFile into a nonexistent directory fails cleanly.
	s := captureTest(t, core.Config{K: 4, TQuantile: 0.9, Seed: 2})
	if err := SaveFile(filepath.Join(t.TempDir(), "no", "dir", "x.snap"), s); err == nil {
		t.Fatal("SaveFile into a missing directory succeeded")
	}
}

// TestCorruptFieldsAfterRehash drives decodePayload's structural arms
// that only a CRC-consistent corruption can reach.
func TestCorruptFieldsAfterRehash(t *testing.T) {
	s := captureTest(t, core.Config{K: 4, TQuantile: 0.9, Seed: 2, Backend: core.BackendXTree})
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	// Locate the dataset dim field: payload starts at 24 with
	// name(4+len), generator(4+len), seed(8), source(4+len),
	// normalized(1), created(8), n(4), dim(4).
	off := 24
	off += 4 + len(s.Name)
	off += 4 + len(s.Provenance.Generator)
	off += 8
	off += 4 + len(s.Provenance.Source)
	off += 1 + 8
	nOff, dimOff := off, off+4

	mutate := func(f func(b []byte)) error {
		mut := append([]byte(nil), valid...)
		f(mut)
		rehash(mut)
		_, err := Read(bytes.NewReader(mut))
		return err
	}
	// Absurd dimensionality.
	if err := mutate(func(b []byte) { putU32(b[dimOff:], 9999) }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("dim=9999: %v", err)
	}
	// Zero dimensionality.
	if err := mutate(func(b []byte) { putU32(b[dimOff:], 0) }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("dim=0: %v", err)
	}
	// Dataset bigger than the payload can hold.
	if err := mutate(func(b []byte) { putU32(b[nOff:], 1<<30) }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("n=2^30: %v", err)
	}
	// Unknown section flags / trailing garbage: flip the final byte of
	// the payload tail after appending junk.
	mut := append([]byte(nil), valid...)
	mut = append(mut, 0xAB)
	putU64(mut[12:20], uint64(len(mut)-24))
	rehash(mut)
	if _, err := Read(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: %v", err)
	}
}

// TestNormStatsRoundTripAndValidation: normalization ranges survive
// the byte format, and non-finite dataset coordinates or degenerate
// ranges are rejected as corrupt even under a consistent CRC.
func TestNormStatsRoundTripAndValidation(t *testing.T) {
	s := captureTest(t, core.Config{K: 4, TQuantile: 0.9, Seed: 2})
	s.NormStats = []ColumnRange{{0, 10}, {-5, 5}, {1, 1}, {0, 2}}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	got, err := Read(bytes.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.NormStats, s.NormStats) {
		t.Fatalf("norm stats diverged: %v vs %v", got.NormStats, s.NormStats)
	}

	// NaN in a normalization range: corrupt.
	nanBits := math.Float64bits(math.NaN())
	mut := append([]byte(nil), valid...)
	putU64(mut[len(mut)-16:], nanBits) // Min of the final range
	rehash(mut)
	if _, err := Read(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("NaN norm range: %v", err)
	}
	// Inverted range: corrupt.
	mut = append([]byte(nil), valid...)
	putU64(mut[len(mut)-16:], math.Float64bits(99))
	rehash(mut)
	if _, err := Read(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("inverted norm range: %v", err)
	}

	// NaN dataset coordinate (the dataio finiteness contract holds on
	// the snapshot path too): first float of the data block.
	off := 24
	off += 4 + len(s.Name)
	off += 4 + len(s.Provenance.Generator)
	off += 8
	off += 4 + len(s.Provenance.Source)
	off += 1 + 8
	off += 4 + 4 + 1 // n, dim, has-columns (captureTest data has none)
	mut = append([]byte(nil), valid...)
	putU64(mut[off:], nanBits)
	rehash(mut)
	if _, err := Read(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("NaN coordinate: %v", err)
	}
}

// TestNormalizeAndScalePoint: Normalize keeps column names and
// records each column's raw range, and ScalePoint maps every raw row
// onto its normalized row bit for bit — the one transform shared by
// the CLIs and the server's ad-hoc-point path.
func TestNormalizeAndScalePoint(t *testing.T) {
	raw, err := vector.FromRows([][]float64{{100, 500, 7}, {110, 480, 7}, {90, 520, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if err := raw.SetColumns([]string{"a", "b", "const"}); err != nil {
		t.Fatal(err)
	}
	norm, ranges, err := Normalize(raw)
	if err != nil {
		t.Fatal(err)
	}
	want := []ColumnRange{{90, 110}, {480, 520}, {7, 7}}
	if !reflect.DeepEqual(ranges, want) {
		t.Fatalf("ranges = %v, want %v", ranges, want)
	}
	if !reflect.DeepEqual(norm.Columns(), raw.Columns()) {
		t.Fatalf("columns = %v, want %v", norm.Columns(), raw.Columns())
	}
	for i := 0; i < raw.N(); i++ {
		in := append([]float64(nil), raw.Point(i)...)
		got := ScalePoint(ranges, in)
		if !reflect.DeepEqual(got, norm.Point(i)) {
			t.Fatalf("row %d: ScalePoint = %v, normalized row = %v", i, got, norm.Point(i))
		}
		if !reflect.DeepEqual(in, raw.Point(i)) {
			t.Fatalf("row %d: ScalePoint modified its argument", i)
		}
	}
	// Dimensions beyond the recorded ranges map to 0, never panic.
	if got := ScalePoint(ranges[:1], []float64{100, 3}); got[0] != 0.5 || got[1] != 0 {
		t.Fatalf("short ranges: %v", got)
	}
	unnamed, _ := vector.FromRows([][]float64{{1}, {3}})
	if n, _, err := Normalize(unnamed); err != nil || n.Columns() != nil {
		t.Fatalf("unnamed dataset: columns %v, err %v", n.Columns(), err)
	}
}

// TestSnapshotFileRoundTrip: a dataset-only snapshot with column
// names survives SaveFile/LoadFile, and a CSV data file handed to
// LoadFile is refused with the typed error, never misread as a
// snapshot.
func TestSnapshotFileRoundTrip(t *testing.T) {
	ds, err := vector.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SetColumns([]string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	s, err := FromDataset("pair", Provenance{Source: "unit"}, ds)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "pair.snap")
	if err := SaveFile(path, s); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "pair" || back.Dataset.N() != 3 || back.Dataset.ColumnName(1) != "y" {
		t.Fatalf("round trip lost data: %+v", back)
	}
	csvPath := filepath.Join(dir, "data.csv")
	if err := os.WriteFile(csvPath, []byte("x,y\n1,2\n3,4\n5,6\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(csvPath); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("LoadFile(csv): err = %v, want a typed snapshot error", err)
	}
}

// TestMinerRefusesFixedParams: a full snapshot restores through Miner,
// and each miner parameter a caller sets is refused by name; names
// outside the list (a source, a query flag) pass.
func TestMinerRefusesFixedParams(t *testing.T) {
	s := captureTest(t, core.Config{K: 4, TQuantile: 0.9, Seed: 2, Backend: core.BackendXTree})
	for _, name := range minerParams {
		_, err := s.Miner(core.Config{}, []string{"load", name})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q conflicts", name)) {
			t.Fatalf("set %q: err = %v, want a conflict naming it", name, err)
		}
	}
	m, err := s.Miner(core.Config{K: 9}, []string{"load", "index", "gen"})
	if err != nil {
		t.Fatal(err)
	}
	if m.Config() != s.Config || m.Threshold() != s.State.Threshold {
		t.Fatalf("restored config %+v T=%v, want the snapshot's %+v T=%v", m.Config(), m.Threshold(), s.Config, s.State.Threshold)
	}
}

// TestMinerMinesDatasetOnly: a dataset-only snapshot is mined under
// the caller's parameters — set is irrelevant — with the sample size
// clamped to the rows, and answers like a miner built directly.
func TestMinerMinesDatasetOnly(t *testing.T) {
	s, err := Generate("g", "synthetic", datagen.NamedConfig{N: 60, D: 3, Planted: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{K: 3, TQuantile: 0.9, Seed: 4, SampleSize: 500}
	m, err := s.Miner(cfg, []string{"k", "tq", "samples", "seed"})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Preprocessed() || m.Config().SampleSize != 30 {
		t.Fatalf("preprocessed = %v, sample size = %d, want true and 30", m.Preprocessed(), m.Config().SampleSize)
	}
	cfg.SampleSize = 30
	direct, err := core.NewMiner(s.Dataset, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := direct.Preprocess(); err != nil {
		t.Fatal(err)
	}
	if m.Threshold() != direct.Threshold() {
		t.Fatalf("T = %v, direct miner T = %v", m.Threshold(), direct.Threshold())
	}
	if _, err := s.Miner(core.Config{}, nil); err == nil {
		t.Fatal("dataset-only snapshot mined without a K or threshold")
	}
}

// TestGenerateRecordsProvenance: a generated snapshot records its
// generator and seed and a creation time; an unknown generator fails.
func TestGenerateRecordsProvenance(t *testing.T) {
	s, err := Generate("g", "uniform", datagen.NamedConfig{N: 20, D: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "g" || s.Provenance.Generator != "uniform" || s.Provenance.Seed != 8 ||
		s.Provenance.Source != "" || s.Provenance.CreatedUnix == 0 || s.HasState() {
		t.Fatalf("generated snapshot = %+v", s)
	}
	if _, err := Generate("g", "nope", datagen.NamedConfig{N: 20, D: 2}); err == nil {
		t.Fatal("unknown generator accepted")
	}
}

// TestNormalizeSnapshot: Normalize scales a dataset-only snapshot and
// records its ranges and the fact together; it refuses a full snapshot
// and a second normalization.
func TestNormalizeSnapshot(t *testing.T) {
	raw, err := vector.FromRows([][]float64{{100, 5}, {110, 7}, {90, 6}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromDataset("n", Provenance{Source: "x.csv", CreatedUnix: 7}, raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	norm, ranges, _ := Normalize(raw)
	if !reflect.DeepEqual(s.Dataset.Rows(), norm.Rows()) || !reflect.DeepEqual(s.NormStats, ranges) {
		t.Fatalf("normalized snapshot rows %v ranges %v, want %v %v", s.Dataset.Rows(), s.NormStats, norm.Rows(), ranges)
	}
	if want := (Provenance{Source: "x.csv", Normalized: true, CreatedUnix: 7}); s.Provenance != want {
		t.Fatalf("provenance = %+v, want %+v", s.Provenance, want)
	}
	if err := s.Normalize(); err == nil || !strings.Contains(err.Error(), "already normalized") {
		t.Fatalf("second normalization: err = %v", err)
	}
	full := captureTest(t, core.Config{K: 4, TQuantile: 0.9, Seed: 2})
	if err := full.Normalize(); err == nil || !strings.Contains(err.Error(), "conflicts") {
		t.Fatalf("normalizing a full snapshot: err = %v", err)
	}
}
