package xtree

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/vector"
)

func randomRows(rng *rand.Rand, n, d int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64() * 10
		}
		rows[i] = row
	}
	return rows
}

func datasetOf(t *testing.T, rows [][]float64, d int) *vector.Dataset {
	t.Helper()
	_ = d
	ds, err := vector.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func encodeTree(t *testing.T, tr *Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAppendEqualsBuild is the core exactness property: inserting rows
// into an already-packed tree continues the original insertion
// sequence, so the appended tree's encoded stream is byte-identical to
// Build over the full dataset. Covered across batch sizes from one
// row to several times the tree, and with chained appends.
func TestAppendEqualsBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const d = 4
	all := randomRows(rng, 600, d)
	for _, tc := range []struct {
		name    string
		base    int
		batches []int
	}{
		{"single_row", 300, []int{1}},
		{"small_batches", 200, []int{7, 13, 50}},
		{"rebuild_trigger", 100, []int{400}}, // a batch 4x the tree
		{"grow_from_tiny", 5, []int{20, 100, 300}},
		{"many_singles", 550, []int{1, 1, 1, 1, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.base
			tr, err := Build(datasetOf(t, all[:n], d), vector.L2, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range tc.batches {
				ds := datasetOf(t, all[:n+b], d)
				tr, err = tr.Append(ds)
				if err != nil {
					t.Fatal(err)
				}
				n += b
				if tr.Size() != n {
					t.Fatalf("appended tree size %d, want %d", tr.Size(), n)
				}
				if err := tr.Validate(); err != nil {
					t.Fatal(err)
				}
			}
			fresh, err := Build(datasetOf(t, all[:n], d), vector.L2, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			got, want := encodeTree(t, tr), encodeTree(t, fresh)
			if !bytes.Equal(got, want) {
				t.Fatalf("appended tree encodes differently from fresh build (%d vs %d bytes)", len(got), len(want))
			}
			if tr.SupernodeCount() != fresh.SupernodeCount() {
				t.Fatalf("supernodes: appended %d, fresh %d", tr.SupernodeCount(), fresh.SupernodeCount())
			}
		})
	}
}

// TestAppendBatchEqualsChainedAppend: a group-commit drain — many
// queued row batches appended as one concatenated dataset, in one
// unpack/insert/repack cycle — encodes byte-identically to both the
// chained per-batch appends and a fresh build, from single rows to
// batches that outgrow the tree.
func TestAppendBatchEqualsChainedAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const d = 4
	all := randomRows(rng, 500, d)
	for _, tc := range []struct {
		name    string
		base    int
		batches []int
	}{
		{"coalesced_singles", 300, []int{1, 1, 1, 1}},
		{"mixed_sizes", 200, []int{3, 40, 7}},
		{"rebuild_trigger", 100, []int{150, 250}}, // batches that outgrow the tree
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := datasetOf(t, all[:tc.base], d)
			tr, err := Build(base, vector.L2, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			n := tc.base
			for _, b := range tc.batches {
				n += b
			}
			batched, err := tr.Append(datasetOf(t, all[:n], d))
			if err != nil {
				t.Fatal(err)
			}
			if batched.Size() != n {
				t.Fatalf("batched size %d, want %d", batched.Size(), n)
			}
			chained := tr
			m := tc.base
			for _, b := range tc.batches {
				m += b
				chained, err = chained.Append(datasetOf(t, all[:m], d))
				if err != nil {
					t.Fatal(err)
				}
			}
			fresh, err := Build(datasetOf(t, all[:n], d), vector.L2, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			bb, cb, fb := encodeTree(t, batched), encodeTree(t, chained), encodeTree(t, fresh)
			if !bytes.Equal(bb, cb) {
				t.Fatal("batched append diverges from chained appends")
			}
			if !bytes.Equal(bb, fb) {
				t.Fatal("batched append diverges from fresh build")
			}
		})
	}
}

// TestAppendLeavesOriginalIntact: Append is copy-on-write — the source
// tree still validates and encodes identically afterwards.
func TestAppendLeavesOriginalIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const d = 3
	all := randomRows(rng, 260, d)
	base := datasetOf(t, all[:200], d)
	tr, err := Build(base, vector.L2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := encodeTree(t, tr)
	if _, err := tr.Append(datasetOf(t, all, d)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("original tree no longer validates after Append: %v", err)
	}
	if !bytes.Equal(before, encodeTree(t, tr)) {
		t.Fatal("Append mutated the source tree's encoding")
	}
}

// TestAppendAfterDecode: a tree restored from its encoded stream (the
// warm-start path) accepts appends and still matches a fresh build.
func TestAppendAfterDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const d = 5
	all := randomRows(rng, 400, d)
	base := datasetOf(t, all[:350], d)
	built, err := Build(base, vector.L2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(bytes.NewReader(encodeTree(t, built)), base)
	if err != nil {
		t.Fatal(err)
	}
	full := datasetOf(t, all, d)
	appended, err := decoded.Append(full)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Build(full, vector.L2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeTree(t, appended), encodeTree(t, fresh)) {
		t.Fatal("append after decode diverges from fresh build")
	}
}

// TestAppendRejectsBadDatasets pins the contract errors: nil dataset,
// wrong dimensionality, shrunk dataset, and a mutated prefix.
func TestAppendRejectsBadDatasets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const d = 3
	all := randomRows(rng, 60, d)
	tr, err := Build(datasetOf(t, all[:50], d), vector.L2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Append(nil); err == nil {
		t.Fatal("nil dataset accepted")
	}
	wrongDim := randomRows(rng, 60, d+1)
	if _, err := tr.Append(datasetOf(t, wrongDim, d+1)); err == nil {
		t.Fatal("wrong dimensionality accepted")
	}
	if _, err := tr.Append(datasetOf(t, all[:40], d)); err == nil {
		t.Fatal("shrunk dataset accepted")
	}
	mutated := make([][]float64, len(all))
	for i, row := range all {
		mutated[i] = append([]float64(nil), row...)
	}
	mutated[10][1] += 0.5
	if _, err := tr.Append(datasetOf(t, mutated, d)); err == nil {
		t.Fatal("mutated prefix accepted")
	}
}

// TestAppendNoNewRows: appending a dataset with no additional rows
// returns an equivalent tree (a no-op epoch bump).
func TestAppendNoNewRows(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const d = 4
	all := randomRows(rng, 120, d)
	ds := datasetOf(t, all, d)
	tr, err := Build(ds, vector.L2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	again, err := tr.Append(ds)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeTree(t, tr), encodeTree(t, again)) {
		t.Fatal("no-op append changed the tree")
	}
}
