package main

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataio"
	"repro/internal/snapshot"
	"repro/internal/vector"
)

// writeFixture generates a small planted dataset CSV and returns its
// path.
func writeFixture(t *testing.T) string {
	t.Helper()
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{
		N: 120, D: 4, NumOutliers: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := dataio.SaveFile(path, ds); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunQueryByIndex(t *testing.T) {
	path := writeFixture(t)
	var out, errBuf bytes.Buffer
	err := run([]string{"-data", path, "-k", "4", "-tq", "0.95", "-index", "0", "-all"}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"minimal outlying subspaces", "search cost", "full outlying set"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunQueryByPoint(t *testing.T) {
	path := writeFixture(t)
	var out, errBuf bytes.Buffer
	err := run([]string{"-data", path, "-k", "4", "-t", "5", "-point", "99,0,0,0"}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "[0]") {
		t.Fatalf("expected dim-0 outlier:\n%s", out.String())
	}
}

func TestRunInlierPoint(t *testing.T) {
	path := writeFixture(t)
	var out, errBuf bytes.Buffer
	// Query an inlier row with a very high absolute threshold.
	err := run([]string{"-data", path, "-k", "4", "-t", "1e12", "-index", "50"}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "not an outlier in any subspace") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunScan(t *testing.T) {
	path := writeFixture(t)
	var out, errBuf bytes.Buffer
	err := run([]string{"-data", path, "-k", "4", "-tq", "0.97", "-scan", "-top", "3"}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "top") || !strings.Contains(out.String(), "OD=") {
		t.Fatalf("scan output:\n%s", out.String())
	}
}

// TestRunScanProgress: -progress must draw the live stderr display up
// to 100% without changing the scan's stdout answer.
func TestRunScanProgress(t *testing.T) {
	path := writeFixture(t)
	var plain, plainErr bytes.Buffer
	if err := run([]string{"-data", path, "-k", "4", "-tq", "0.97", "-scan", "-top", "3"}, &plain, &plainErr); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	err := run([]string{"-data", path, "-k", "4", "-tq", "0.97", "-scan", "-top", "3",
		"-progress", "-scan-workers", "2"}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != plain.String() {
		t.Fatalf("progress display changed the answer:\n%s\nvs\n%s", out.String(), plain.String())
	}
	se := errBuf.String()
	if !strings.Contains(se, "scanning:") || !strings.Contains(se, "100% (120/120 points)") {
		t.Fatalf("stderr missing progress display:\n%q", se)
	}
	if plainErr.Len() != 0 {
		t.Fatalf("progress printed without -progress:\n%q", plainErr.String())
	}
}

func TestRunNormalizeAndBackends(t *testing.T) {
	path := writeFixture(t)
	for _, backend := range []string{"linear", "xtree", "auto"} {
		var out, errBuf bytes.Buffer
		err := run([]string{"-data", path, "-k", "4", "-tq", "0.95",
			"-index", "0", "-normalize", "-backend", backend}, &out, &errBuf)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
	}
	for _, policy := range []string{"bottomup", "topdown", "random"} {
		var out, errBuf bytes.Buffer
		err := run([]string{"-data", path, "-k", "4", "-tq", "0.95",
			"-index", "0", "-policy", policy}, &out, &errBuf)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
	}
}

func TestRunSharded(t *testing.T) {
	path := writeFixture(t)
	// The sharded run must print the topology and answer exactly like
	// the unsharded one.
	var ref bytes.Buffer
	if err := run([]string{"-data", path, "-k", "4", "-tq", "0.95", "-index", "0"}, &ref, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	for _, part := range []string{"roundrobin", "hash"} {
		var out, errBuf bytes.Buffer
		err := run([]string{"-data", path, "-k", "4", "-tq", "0.95",
			"-index", "0", "-shards", "3", "-partitioner", part}, &out, &errBuf)
		if err != nil {
			t.Fatalf("%s: %v", part, err)
		}
		if !strings.Contains(out.String(), "sharding: 3 shards ("+part) {
			t.Fatalf("%s: missing topology line:\n%s", part, out.String())
		}
		// Everything after the sharding line must match the reference
		// output after its header line.
		refLines := strings.SplitN(ref.String(), "\n", 2)
		gotLines := strings.SplitN(out.String(), "\n", 3)
		if gotLines[2] != refLines[1] {
			t.Fatalf("%s: sharded answer diverged:\n%s\nvs\n%s", part, gotLines[2], refLines[1])
		}
	}
	var out, errBuf bytes.Buffer
	if err := run([]string{"-data", path, "-k", "4", "-tq", "0.95",
		"-index", "0", "-shards", "2", "-partitioner", "zig"}, &out, &errBuf); err == nil {
		t.Fatal("bad -partitioner accepted")
	}
}

func TestRunErrors(t *testing.T) {
	path := writeFixture(t)
	var out, errBuf bytes.Buffer
	cases := [][]string{
		{},                            // no -data
		{"-data", "/nonexistent.csv"}, // missing file
		{"-data", path},               // no query
		{"-data", path, "-index", "0", "-point", "1,2,3,4"}, // both
		{"-data", path, "-index", "0"},                      // no threshold
		{"-data", path, "-t", "1", "-point", "1,2"},         // wrong dim
		{"-data", path, "-t", "1", "-point", "a,b,c,d"},     // non-numeric
		{"-data", path, "-t", "1", "-point", "NaN,0,0,0"},   // non-finite
		{"-data", path, "-t", "1", "-point", "0,+Inf,0,0"},
		{"-data", path, "-k", "5", "-tq", "0.95", "-point", "0,0,0,-Inf"},
		{"-data", path, "-t", "1", "-backend", "bogus", "-index", "0"},
		{"-data", path, "-t", "1", "-policy", "bogus", "-index", "0"},
		// The JSON state flags are gone; .snap is the one format.
		{"-data", path, "-t", "1", "-index", "0", "-save-state", "s.json"},
		{"-data", path, "-t", "1", "-index", "0", "-load-state", "s.json"},
	}
	for i, args := range cases {
		if err := run(args, &out, &errBuf); err == nil {
			t.Errorf("case %d accepted: %v", i, args)
		}
	}
}

// writeOffsetFixture writes a 300x3 CSV whose columns sit near 100,
// 500 and 10 in raw units — far outside [0,1], so a raw-unit point
// compared against the normalized data without rescaling looks
// maximally distant in every subspace.
func writeOffsetFixture(t *testing.T) (string, *vector.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	rows := make([][]float64, 300)
	for i := range rows {
		rows[i] = []float64{100 + rng.NormFloat64()*3, 500 + rng.NormFloat64()*20, 10 + rng.NormFloat64()}
	}
	ds, err := vector.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "offset.csv")
	if err := dataio.SaveFile(path, ds); err != nil {
		t.Fatal(err)
	}
	return path, ds
}

// TestRunNormalizedPointMatchesScaledData is the regression test for
// -normalize -point comparing a raw-unit point against [0,1]-scaled
// data: the answer must equal the one for the min-max-scaled CSV
// queried with the point scaled by the same column ranges — on the
// fresh path and after -load of a normalized snapshot.
func TestRunNormalizedPointMatchesScaledData(t *testing.T) {
	rawPath, raw := writeOffsetFixture(t)
	p := []float64{100, 500, 10}
	stats := raw.Stats()
	scaled := make([]string, len(p))
	for j, v := range p {
		scaled[j] = strconv.FormatFloat((v-stats[j].Min)/(stats[j].Max-stats[j].Min), 'g', -1, 64)
	}
	norm, _ := raw.MinMaxNormalize()
	scaledPath := filepath.Join(t.TempDir(), "scaled.csv")
	if err := dataio.SaveFile(scaledPath, norm); err != nil {
		t.Fatal(err)
	}
	query := func(args ...string) string {
		t.Helper()
		var out, errBuf bytes.Buffer
		if err := run(args, &out, &errBuf); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		s := out.String()
		idx := strings.Index(s, "the point is not")
		if idx < 0 {
			idx = strings.Index(s, "minimal outlying")
		}
		if idx < 0 {
			t.Fatalf("no results in output of %v:\n%s", args, s)
		}
		return s[idx:]
	}
	want := query("-data", scaledPath, "-k", "5", "-tq", "0.95", "-point", strings.Join(scaled, ","))
	if !strings.Contains(want, "not an outlier") {
		t.Fatalf("the column-centre point is outlying in the scaled data:\n%s", want)
	}
	raws := "100,500,10"
	snapPath := filepath.Join(t.TempDir(), "norm.snap")
	if got := query("-data", rawPath, "-normalize", "-k", "5", "-tq", "0.95", "-point", raws, "-save", snapPath); got != want {
		t.Fatalf("-normalize -point answered\n%s\nwant (scaled data, scaled point)\n%s", got, want)
	}
	if got := query("-load", snapPath, "-point", raws); got != want {
		t.Fatalf("-load of a normalized snapshot answered\n%s\nwant\n%s", got, want)
	}
}

func TestRunBatch(t *testing.T) {
	path := writeFixture(t)
	var out, errBuf bytes.Buffer
	// Index 0 is a planted outlier; duplicate it so the repeat is
	// answered from the first occurrence, and include an out-of-range
	// item to see per-item error reporting.
	err := run([]string{"-data", path, "-k", "4", "-tq", "0.95", "-batch", "0, 5, 0, 999"}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"#0", "outlying in", "error", "batch: 3 ok, 1 failed"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	var zero []string
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "#0 ") {
			zero = append(zero, line)
		}
	}
	if len(zero) != 2 || zero[0] != zero[1] {
		t.Fatalf("repeated index 0 not answered twice alike:\n%s", s)
	}
}

func TestRunBatchBadIndex(t *testing.T) {
	path := writeFixture(t)
	var out, errBuf bytes.Buffer
	if err := run([]string{"-data", path, "-k", "4", "-tq", "0.95", "-batch", "0,x"}, &out, &errBuf); err == nil {
		t.Fatal("malformed -batch accepted")
	}
}

// TestRunSnapshotSaveAndLoad: -save captures a full snapshot, -load
// restores it (no -t/-tq needed) and answers identically; conflicting
// flags and dataset-only snapshots behave as documented.
func TestRunSnapshotSaveAndLoad(t *testing.T) {
	path := writeFixture(t)
	snapPath := filepath.Join(t.TempDir(), "mined.snap")
	var out1, errBuf bytes.Buffer
	err := run([]string{"-data", path, "-k", "4", "-tq", "0.95", "-samples", "8",
		"-backend", "xtree", "-index", "0", "-save", snapPath}, &out1, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errBuf.String(), "saved snapshot") {
		t.Fatalf("stderr: %s", errBuf.String())
	}

	// Warm load: no threshold flags, no -data; identical stdout.
	var out2, errBuf2 bytes.Buffer
	if err := run([]string{"-load", snapPath, "-index", "0"}, &out2, &errBuf2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errBuf2.String(), "restored snapshot") {
		t.Fatalf("stderr: %s", errBuf2.String())
	}
	// Identical answers; the learning-stats line is legitimately absent
	// on the warm path (learning never re-runs), so compare from the
	// results onward.
	pick := func(s string) string {
		idx := strings.Index(s, "minimal outlying")
		if idx < 0 {
			t.Fatalf("no results in output:\n%s", s)
		}
		return s[idx:]
	}
	if pick(out1.String()) != pick(out2.String()) {
		t.Fatalf("snapshot round trip changed answers:\n%s\nvs\n%s", out1.String(), out2.String())
	}

	// Conflicts.
	for _, extra := range [][]string{
		{"-tq", "0.9"}, {"-t", "5"}, {"-samples", "4"}, {"-normalize"}, {"-data", path},
		{"-k", "4"}, {"-seed", "1"}, {"-shards", "2"}, {"-backend", "xtree"}, {"-policy", "tsf"}, {"-partitioner", "hash"},
	} {
		args := append([]string{"-load", snapPath, "-index", "0"}, extra...)
		var o, e bytes.Buffer
		if err := run(args, &o, &e); err == nil {
			t.Fatalf("flags %v accepted alongside -load of a full snapshot", extra)
		}
	}
	// Missing and corrupt files fail cleanly.
	var o, e bytes.Buffer
	if err := run([]string{"-load", filepath.Join(t.TempDir(), "no.snap"), "-index", "0"}, &o, &e); err == nil {
		t.Fatal("missing snapshot accepted")
	}
}

// TestRunDatasetOnlySnapshot: a hosgen-style dataset-only snapshot
// loads like a CSV — miner flags apply — and answers exactly as the
// same data loaded from CSV.
func TestRunDatasetOnlySnapshot(t *testing.T) {
	csvPath := writeFixture(t)
	ds, err := dataio.LoadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	s, err := snapshot.FromDataset("fixture", snapshot.Provenance{Source: csvPath}, ds)
	if err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(t.TempDir(), "fixture.snap")
	if err := snapshot.SaveFile(snapPath, s); err != nil {
		t.Fatal(err)
	}
	var fromCSV, fromSnap, errBuf bytes.Buffer
	if err := run([]string{"-data", csvPath, "-k", "4", "-tq", "0.95", "-index", "2"}, &fromCSV, &errBuf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-load", snapPath, "-k", "4", "-tq", "0.95", "-index", "2"}, &fromSnap, &errBuf); err != nil {
		t.Fatal(err)
	}
	if fromCSV.String() != fromSnap.String() {
		t.Fatalf("dataset-only snapshot answers differently:\n%s\nvs\n%s", fromCSV.String(), fromSnap.String())
	}
	// Data that is already normalized cannot be normalized again: its
	// points would be rescaled by the wrong ranges.
	norm, ranges, err := snapshot.Normalize(ds)
	if err != nil {
		t.Fatal(err)
	}
	if s, err = snapshot.FromDataset("normed", snapshot.Provenance{Normalized: true}, norm); err != nil {
		t.Fatal(err)
	}
	s.NormStats = ranges
	if err := snapshot.SaveFile(snapPath, s); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-load", snapPath, "-normalize", "-k", "4", "-tq", "0.95", "-index", "2"}, &fromSnap, &errBuf); err == nil {
		t.Fatal("-normalize accepted on an already normalized snapshot")
	}
}

// TestRunResaveKeepsProvenance: a snapshot re-saved from -load keeps
// the provenance and normalization ranges of the one it was loaded
// from — the CSV source, not the intermediate file, and no miner seed
// posing as a generation seed.
func TestRunResaveKeepsProvenance(t *testing.T) {
	csvPath := writeFixture(t)
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.snap"), filepath.Join(dir, "b.snap")
	var out, errBuf bytes.Buffer
	if err := run([]string{"-data", csvPath, "-normalize", "-k", "4", "-tq", "0.95", "-seed", "7",
		"-index", "0", "-save", a}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-load", a, "-index", "0", "-save", b}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	sa, err := snapshot.LoadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := snapshot.LoadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if want := (snapshot.Provenance{Source: csvPath, Normalized: true, CreatedUnix: sa.Provenance.CreatedUnix}); sa.Provenance != want {
		t.Fatalf("a.snap provenance = %+v, want %+v", sa.Provenance, want)
	}
	if sb.Provenance != sa.Provenance || !reflect.DeepEqual(sb.NormStats, sa.NormStats) || sb.Config != sa.Config {
		t.Fatalf("re-saved snapshot drifted:\n a: %+v %v %+v\n b: %+v %v %+v",
			sa.Provenance, sa.NormStats, sa.Config, sb.Provenance, sb.NormStats, sb.Config)
	}
	if sa.Config.Seed != 7 {
		t.Fatalf("miner seed = %d, want 7 (kept in the config)", sa.Config.Seed)
	}
}
